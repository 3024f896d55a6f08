// Package shard implements LambdaStore's microsharding (paper §4.2):
// objects are microshards — self-contained units of placement that can be
// migrated individually without disrupting computation on other objects,
// unlike hash-based sharding which reshuffles key ranges wholesale. The
// directory maps each object to a replica group using a default placement
// policy plus per-object overrides recorded by migrations, preserving
// locality ("the abstraction enables application developers to define what
// data belongs together").
package shard

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"lambdastore/internal/wire"
)

// ErrNoGroups is returned by lookups on an empty directory.
var ErrNoGroups = errors.New("shard: no replica groups configured")

// Group is one replica set.
type Group struct {
	ID      uint64
	Primary string   // RPC address of the primary
	Backups []string // RPC addresses of the backups
}

// Replicas returns primary + backups.
func (g *Group) Replicas() []string {
	out := make([]string, 0, 1+len(g.Backups))
	out = append(out, g.Primary)
	return append(out, g.Backups...)
}

// ReadReplica names the replica that serves obj's reads at a retry's
// attempt: the attempt-th (mod group size) in obj's rendezvous
// (highest-random-weight) order over the replicas' addresses. A weight
// depends on an address and the object alone, so a promotion reshuffles
// nothing and a replica that leaves moves only its own objects. It
// allocates nothing. Pass k picks the heaviest replica lighter than pass
// k-1's pick; equal weights order by address.
func (g *Group) ReadReplica(obj uint64, attempt int) string {
	var pick string
	var pickW uint64
	for k := 0; k <= attempt%(1+len(g.Backups)); k++ {
		best, bestW := "", uint64(0)
		for i := -1; i < len(g.Backups); i++ {
			a := g.Primary
			if i >= 0 {
				a = g.Backups[i]
			}
			w := rendezvousWeight(a, obj)
			if (k == 0 || w < pickW || w == pickW && a < pick) && (best == "" || w > bestW || w == bestW && a > best) {
				best, bestW = a, w
			}
		}
		if best == "" {
			break
		}
		pick, pickW = best, bestW
	}
	return pick
}

// rendezvousWeight is replica addr's weight for object obj: FNV-1a over the
// address, mixed with the object by a 64-bit finalizer.
func rendezvousWeight(addr string, obj uint64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(addr); i++ {
		h = (h ^ uint64(addr[i])) * 1099511628211
	}
	h ^= obj * 0x9e3779b97f4a7c15
	h = (h ^ h>>33) * 0xff51afd7ed558ccd
	h = (h ^ h>>33) * 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

// Clone deep-copies the group.
func (g *Group) Clone() Group {
	return Group{ID: g.ID, Primary: g.Primary, Backups: append([]string(nil), g.Backups...)}
}

// Directory maps objects to replica groups. It is versioned by an epoch so
// nodes and clients can detect stale cached copies after reconfigurations.
//
// A stored group is immutable: every mutator replaces the group (and its
// Backups slice) instead of editing it, so Lookup and Group hand out the
// stored value without copying — one lookup per request on both client and
// node allocates nothing. Callers must not modify what they are handed.
type Directory struct {
	mu        sync.RWMutex
	epoch     uint64
	groups    []Group
	overrides map[uint64]uint64 // object -> group ID (microshard moves)
}

// NewDirectory builds a directory over the given groups.
func NewDirectory(groups []Group) *Directory {
	d := &Directory{overrides: make(map[uint64]uint64)}
	for i := range groups {
		d.groups = append(d.groups, groups[i].Clone())
	}
	d.sortGroups()
	return d
}

func (d *Directory) sortGroups() {
	sort.Slice(d.groups, func(i, j int) bool { return d.groups[i].ID < d.groups[j].ID })
}

// Epoch returns the directory version.
func (d *Directory) Epoch() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.epoch
}

// Groups returns all groups, in ID order.
func (d *Directory) Groups() []Group {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return append([]Group(nil), d.groups...)
}

// Group returns the group with the given ID.
func (d *Directory) Group(gid uint64) (Group, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	for i := range d.groups {
		if d.groups[i].ID == gid {
			return d.groups[i], true
		}
	}
	return Group{}, false
}

// Lookup returns the group responsible for object id: the override if the
// object was migrated, otherwise the default hash placement (id mod number
// of groups — the contrast baseline the paper mentions; microshard moves
// then refine it).
func (d *Directory) Lookup(id uint64) (Group, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if len(d.groups) == 0 {
		return Group{}, ErrNoGroups
	}
	if gid, ok := d.overrides[id]; ok {
		for i := range d.groups {
			if d.groups[i].ID == gid {
				return d.groups[i], nil
			}
		}
		// Stale override to a removed group: fall through to default.
	}
	return d.groups[id%uint64(len(d.groups))], nil
}

// SetGroup installs or replaces a group definition, bumping the epoch.
func (d *Directory) SetGroup(g Group) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range d.groups {
		if d.groups[i].ID == g.ID {
			d.groups[i] = g.Clone()
			d.epoch++
			return
		}
	}
	d.groups = append(d.groups, g.Clone())
	d.sortGroups()
	d.epoch++
}

// DefaultGroupID returns the group an object maps to under the hash
// placement alone, ignoring overrides — the object's "home". Migrations
// back home clear the override instead of recording one, which is what
// keeps the override table from growing without bound.
func (d *Directory) DefaultGroupID(id uint64) (uint64, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if len(d.groups) == 0 {
		return 0, ErrNoGroups
	}
	return d.groups[id%uint64(len(d.groups))].ID, nil
}

// SetOverride records a migrated object's new home.
func (d *Directory) SetOverride(object, groupID uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.overrides[object] = groupID
	d.epoch++
}

// ClearOverride removes a migration record (the object is back at its
// default placement).
func (d *Directory) ClearOverride(object uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.overrides, object)
	d.epoch++
}

// OverrideCount returns the number of migrated objects.
func (d *Directory) OverrideCount() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.overrides)
}

// Promote makes the named backup the primary of group gid (failover),
// removing the failed primary from the group. Returns the updated group.
func (d *Directory) Promote(gid uint64, newPrimary string) (Group, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range d.groups {
		g := &d.groups[i]
		if g.ID != gid {
			continue
		}
		var rest []string
		found := false
		for _, b := range g.Backups {
			if b == newPrimary {
				found = true
				continue
			}
			rest = append(rest, b)
		}
		if !found {
			return Group{}, fmt.Errorf("shard: %q is not a backup of group %d", newPrimary, gid)
		}
		g.Backups = rest
		g.Primary = newPrimary
		d.epoch++
		return g.Clone(), nil
	}
	return Group{}, fmt.Errorf("shard: no group %d", gid)
}

// EvictBackup removes addr from group gid's backup set (dead-backup
// cleanup), bumping the epoch. It reports whether the backup was present —
// absent is a no-op, keeping duplicate eviction proposals idempotent.
func (d *Directory) EvictBackup(gid uint64, addr string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range d.groups {
		g := &d.groups[i]
		if g.ID != gid {
			continue
		}
		for j, b := range g.Backups {
			if b == addr {
				g.Backups = append(append([]string(nil), g.Backups[:j]...), g.Backups[j+1:]...)
				d.epoch++
				return true
			}
		}
		return false
	}
	return false
}

// AddBackup appends addr to group gid's backup set (a recovered node
// re-admitted after anti-entropy catch-up), bumping the epoch. It
// reports whether the group changed — an addr already present (or the
// primary itself) is a no-op, keeping duplicate rejoin proposals
// idempotent.
func (d *Directory) AddBackup(gid uint64, addr string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range d.groups {
		g := &d.groups[i]
		if g.ID != gid {
			continue
		}
		if g.Primary == addr {
			return false
		}
		for _, b := range g.Backups {
			if b == addr {
				return false
			}
		}
		g.Backups = append(append([]string(nil), g.Backups...), addr)
		d.epoch++
		return true
	}
	return false
}

// Snapshot serializes the directory (coordinator -> node/client transfer).
func (d *Directory) Snapshot() []byte {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var b []byte
	b = wire.AppendUvarint(b, d.epoch)
	b = wire.AppendUvarint(b, uint64(len(d.groups)))
	for _, g := range d.groups {
		b = wire.AppendUvarint(b, g.ID)
		b = wire.AppendString(b, g.Primary)
		b = wire.AppendUvarint(b, uint64(len(g.Backups)))
		for _, bk := range g.Backups {
			b = wire.AppendString(b, bk)
		}
	}
	b = wire.AppendUvarint(b, uint64(len(d.overrides)))
	// Sorted, so the encoding is stable for tests.
	keys := make([]uint64, 0, len(d.overrides))
	for k := range d.overrides {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		b = wire.AppendUvarint(b, k)
		b = wire.AppendUvarint(b, d.overrides[k])
	}
	return b
}

// Load replaces the directory contents from a snapshot.
func Load(data []byte) (*Directory, error) {
	r := wire.NewReader(data)
	d := &Directory{epoch: r.Uvarint()}
	// A group is at least an id, a primary length and a backup count; an
	// override two varints.
	d.groups = make([]Group, r.Count(3))
	for i := range d.groups {
		g := &d.groups[i]
		g.ID, g.Primary = r.Uvarint(), r.Str()
		g.Backups = make([]string, r.Count(1))
		for j := range g.Backups {
			g.Backups[j] = r.Str()
		}
	}
	n := r.Count(2)
	d.overrides = make(map[uint64]uint64, n)
	for ; n > 0; n-- {
		obj := r.Uvarint()
		d.overrides[obj] = r.Uvarint()
	}
	if err := r.ErrIn("shard: directory snapshot"); err != nil {
		return nil, err
	}
	d.sortGroups()
	return d, nil
}
