package main

import (
	"lambdastore/internal/telemetry"
)

// clusterProbe times the real request — the root span of every traced
// request — and finds out which replica served it, so the deeper probes
// can re-enter the same op on replicas whose caches the real request did
// not just warm.
type clusterProbe struct {
	d *deployment
	// invoked[node][kind] counts that node's invocations of the kind's
	// method; exactly one moves while a single client has one request out.
	invoked [][3]*telemetry.Counter
}

func newClusterProbe(d *deployment) *clusterProbe {
	p := &clusterProbe{d: d, invoked: make([][3]*telemetry.Counter, len(d.nodes))}
	for ni, n := range d.nodes {
		for _, k := range []opKind{opRead, opPost, opFollow} {
			p.invoked[ni][k] = n.Metrics().Counter("core.invoke." + op{kind: k}.method())
		}
	}
	return p
}

// invoke issues o through the client under a root span and returns the
// result, the root span's ID and the index of the node that executed it.
func (p *clusterProbe) invoke(l *spanLog, req int, in *inputs, o op) (res []byte, root, served int, err error) {
	var before [replicas]uint64
	for ni := range p.invoked {
		before[ni] = p.invoked[ni][o.kind].Value()
	}
	root = l.begin("cluster.invoke", req, 0)
	res, err = p.d.issue(in, o)
	l.end(root)
	for ni := range p.invoked {
		if p.invoked[ni][o.kind].Value() != before[ni] {
			served = ni
			break
		}
	}
	return res, root, served, err
}
