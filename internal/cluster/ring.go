package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
)

// DefaultVnodes is the virtual-node count per backend on every BackendSet's
// ring, and NewRing's for vnodes ≤ 0. 128 points per node keeps the keyspace share of an N-node fleet
// within a few percent of 1/N while the ring stays small enough to rebuild
// on every membership change.
const DefaultVnodes = 128

// Ring is a consistent-hash ring with virtual nodes. Keys (model names) and
// node positions share one 64-bit FNV-1a hash space; a key's owners are the
// first distinct nodes clockwise from the key's hash. Membership changes
// move only the keyspace between the affected points — ~1/N of all keys per
// node joined or removed — which is the property that makes it the model-
// placement function for a radixserve fleet: growing the fleet re-places
// few models. Safe for concurrent use.
type Ring struct {
	vnodes int

	mu     sync.RWMutex
	nodes  map[string]struct{}
	points []ringPoint // sorted by hash, ties broken by node id
}

// ringPoint is one virtual node: a position on the hash circle owned by a
// backend id.
type ringPoint struct {
	hash uint64
	node string
}

// NewRing returns an empty ring placing each node at vnodes virtual
// positions (≤ 0 selects DefaultVnodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	return &Ring{vnodes: vnodes, nodes: make(map[string]struct{})}
}

// hashKey maps an arbitrary string onto the ring's hash circle: FNV-1a for
// the byte mixing, then a murmur3-style finalizer. The finalizer matters:
// raw FNV-1a of strings differing only in a trailing vnode digit differs
// mostly in low bits, which would cluster all of a node's virtual points in
// one arc and destroy the 1/N balance the ring exists for.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Add places the nodes onto the ring (ignoring ids already present) and
// returns the ring for chaining.
func (r *Ring) Add(nodes ...string) *Ring {
	r.mu.Lock()
	defer r.mu.Unlock()
	changed := false
	for _, node := range nodes {
		if _, dup := r.nodes[node]; dup || node == "" {
			continue
		}
		r.nodes[node] = struct{}{}
		for v := 0; v < r.vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hashKey(node + "#" + strconv.Itoa(v)), node: node})
		}
		changed = true
	}
	if changed {
		sort.Slice(r.points, func(i, j int) bool {
			if r.points[i].hash != r.points[j].hash {
				return r.points[i].hash < r.points[j].hash
			}
			return r.points[i].node < r.points[j].node
		})
	}
	return r
}

// Len returns the number of nodes on the ring.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}

// Walk visits the distinct nodes in ring order starting clockwise from
// key's hash, calling fn for each until fn returns false or every node has
// been visited. This is the primitive behind Owners and behind the
// router's failover order: the first node is the key's primary owner, the
// rest are its successors.
func (r *Ring) Walk(key string, fn func(node string) bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[string]struct{}, len(r.nodes))
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, dup := seen[p.node]; dup {
			continue
		}
		seen[p.node] = struct{}{}
		if !fn(p.node) {
			return
		}
		if len(seen) == len(r.nodes) {
			return
		}
	}
}

// WalkSpread visits the distinct nodes in zone-diverse ring order: nodes
// are ranked by how many earlier nodes (in plain Walk order) share their
// zone, and visited by (rank, ring position) — one node per distinct zone
// first, then second nodes per zone, and so on. Every prefix of the visit
// order therefore touches min(len(prefix), zones) distinct zones, which is
// what makes the first R nodes a failure-domain-spread replica set and the
// R+1th a cross-zone failover candidate. zoneOf maps a node id to its zone;
// "" is itself a zone (an unzoned fleet degrades to exactly Walk order,
// because deferral preserves ring order). The reordering is a deterministic
// function of the walk sequence, so membership changes still move only the
// keyspace adjacent to the affected points — the ~1/N movement property
// survives zone awareness.
func (r *Ring) WalkSpread(key string, zoneOf func(node string) string, fn func(node string) bool) {
	if zoneOf == nil {
		r.Walk(key, fn)
		return
	}
	var nodes []string
	r.Walk(key, func(node string) bool {
		nodes = append(nodes, node)
		return true
	})
	if len(nodes) == 0 {
		return
	}
	ranks := make([]int, len(nodes))
	perZone := make(map[string]int, len(nodes))
	maxRank := 0
	for i, node := range nodes {
		z := zoneOf(node)
		ranks[i] = perZone[z]
		perZone[z]++
		if ranks[i] > maxRank {
			maxRank = ranks[i]
		}
	}
	for rank := 0; rank <= maxRank; rank++ {
		for i, node := range nodes {
			if ranks[i] != rank {
				continue
			}
			if !fn(node) {
				return
			}
		}
	}
}

// OwnersSpread is Owners with zone-diverse ordering: the first n nodes of
// WalkSpread — a replica set spread across min(n, zones) distinct failure
// domains, in cross-zone failover order.
func (r *Ring) OwnersSpread(key string, n int, zoneOf func(node string) string) []string {
	if n <= 0 {
		return nil
	}
	owners := make([]string, 0, n)
	r.WalkSpread(key, zoneOf, func(node string) bool {
		owners = append(owners, node)
		return len(owners) < n
	})
	return owners
}

// Owners returns the first n distinct nodes clockwise from key's hash —
// the key's replica set in failover order. Fewer than n nodes on the ring
// yields all of them.
func (r *Ring) Owners(key string, n int) []string { return r.OwnersSpread(key, n, nil) }

// String summarizes the ring for logs.
func (r *Ring) String() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return fmt.Sprintf("cluster.Ring{nodes: %d, vnodes: %d, points: %d}", len(r.nodes), r.vnodes, len(r.points))
}
