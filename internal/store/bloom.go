package store

import "encoding/binary"

// Bloom filters let table readers skip disk blocks for keys that are
// certainly absent. One filter covers a whole SSTable's user keys, as in
// LevelDB's FilterPolicy with a single filter partition (tables here are
// small enough that partitioning buys nothing).

// bloomHash is the same 32-bit Murmur-inspired hash LevelDB uses for its
// bloom filters.
func bloomHash(b []byte) uint32 {
	const (
		seed = 0xbc9f1d34
		m    = 0xc6a4a793
	)
	h := uint32(seed) ^ uint32(len(b))*m
	for len(b) >= 4 {
		h += binary.LittleEndian.Uint32(b)
		h *= m
		h ^= h >> 16
		b = b[4:]
	}
	switch len(b) {
	case 3:
		h += uint32(b[2]) << 16
		fallthrough
	case 2:
		h += uint32(b[1]) << 8
		fallthrough
	case 1:
		h += uint32(b[0])
		h *= m
		h ^= h >> 24
	}
	return h
}

// Filter sizing is part of the table format, not a knob: 10 bits per key
// gives ~1% false positives, and k = bitsPerKey * ln2 probes minimizes that
// rate.
const (
	bloomBitsPerKey = 10
	bloomProbes     = 6
)

// buildBloom creates a filter over the keys whose bloomHash values are
// hashes. The final byte records the probe count so readers are
// self-describing.
func buildBloom(hashes []uint32) []byte {
	if len(hashes) == 0 {
		return nil
	}
	bits := len(hashes) * bloomBitsPerKey
	if bits < 64 {
		bits = 64
	}
	nBytes := (bits + 7) / 8
	bits = nBytes * 8
	filter := make([]byte, nBytes+1)
	filter[nBytes] = bloomProbes
	for _, h := range hashes {
		delta := h>>17 | h<<15 // rotate right 17 bits
		for i := 0; i < bloomProbes; i++ {
			pos := h % uint32(bits)
			filter[pos/8] |= 1 << (pos % 8)
			h += delta
		}
	}
	return filter
}

// bloomMayContain reports whether key may be in the set the filter was
// built from. An empty filter matches everything.
func bloomMayContain(filter, key []byte) bool {
	if len(filter) < 2 {
		return true
	}
	nBytes := len(filter) - 1
	bits := uint32(nBytes * 8)
	k := filter[nBytes]
	if k > 30 {
		// Reserved for future encodings; treat as always-match.
		return true
	}
	h := bloomHash(key)
	delta := h>>17 | h<<15
	for i := uint8(0); i < k; i++ {
		pos := h % bits
		if filter[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
		h += delta
	}
	return true
}
