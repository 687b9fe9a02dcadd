package vcache

import (
	"hash/fnv"
	"sort"
)

// Ring is a consistent-hash ring mapping cache keys to node names.
// Each node owns VNodes virtual points; removing a node remaps only
// the keys it owned (the property that makes "automatically
// re-hashing when cache nodes are added or removed" cheap, §3.1.5).
// It is not safe for concurrent use: its Client's lock guards it.
type Ring struct {
	vnodes int
	points []ringPoint // sorted by hash
	nodes  map[string]bool
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing creates a ring with the given virtual nodes per physical
// node (0 uses a sensible default).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 64
	}
	return &Ring{vnodes: vnodes, nodes: make(map[string]bool)}
}

func hashKey(s string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(s))
	h := f.Sum64()
	// FNV's high bits avalanche poorly for short strings that differ
	// only in a trailing digit (exactly our vnode labels), which
	// clusters a node's vnodes in one arc of the ring. A murmur3-style
	// finalizer disperses them.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Add inserts a node (idempotent).
func (r *Ring) Add(node string) {
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{
			hash: hashKey(node + "#" + itoa(i)),
			node: node,
		})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a node (idempotent).
func (r *Ring) Remove(node string) {
	if !r.nodes[node] {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Lookup returns the node owning key, or "" if the ring is empty.
func (r *Ring) Lookup(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// Nodes returns the current node set, sorted.
func (r *Ring) Nodes() []string {
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of physical nodes.
func (r *Ring) Len() int {
	return len(r.nodes)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
