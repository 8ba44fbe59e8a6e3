// Package shard scales the tuning service horizontally: a consistent-
// hash ring assigns sessions to worker processes, a Router fronts the
// fleet with one stable address, and a PeerSet lets every worker answer
// its evaluation-cache misses from its peers before simulating. The
// package holds no session state of its own — a worker going down loses
// nothing the journals don't already hold, and the router's only
// in-memory state (the ring plus per-shard health) rebuilds from flags
// at startup.
//
// Routing hashes shard *names*, not addresses: repointing a name at a
// replacement process (journal recovery on a new port) changes where
// requests land without moving a single session to a different shard.
package shard

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"phasetune/internal/engine"
)

// FNV-1a 64-bit parameters. The ring hashes with FNV-1a because it is
// dependency-free, stable across processes and architectures (routing
// must agree between every router instance ever started with the same
// shard names), and fast enough that hashing is never the hot path.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnv1a(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// splitmix64 is a single-pass mixer in the style of SplitMix64:
// deterministic, seedable, and good enough to decorrelate a counter.
// It is not SplitMix64: its first multiplier is 0xbf58476d1ce4e9b5,
// where the SplitMix64 in engine, client and chaosnet uses
// 0xbf58476d1ce4e5b9. Do not change it, not even to the standard
// constant: it places every session on the ring, deciding which
// worker's disk holds its journal and which its replica, and it
// derives router-minted ids, so another constant would move most
// existing sessions to a different owner (TestRingPlacementGolden pins
// the placement).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e9b5
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ringHash positions a string on the ring: FNV-1a folds the bytes,
// splitmix64 disperses the result. Raw FNV-1a of short, similar strings
// ("w0#17", "w2#3") clusters badly in the upper bits, which is exactly
// where the ring's ordering lives; the mixer spreads the points so
// per-shard load stays near the fair share.
func ringHash(s string) uint64 {
	return splitmix64(fnv1a(s))
}

// Ring is an immutable consistent-hash ring over shard names. Each
// member is planted at `replicas` pseudo-random points (virtual nodes)
// so load spreads evenly even with few members; a key belongs to the
// first member point at or clockwise after the key's own hash.
//
// Immutability is deliberate: membership changes are a fleet-level
// event (resharding moves sessions), so they build a new Ring rather
// than mutating one under concurrent lookups.
type Ring struct {
	replicas int
	points   []uint64 // sorted virtual-node positions
	owners   []string // owners[i] owns points[i]
	names    []string // members, sorted
}

// DefaultReplicas is the virtual-node count per member when the caller
// does not choose: at 64 points per member the max/min load ratio over
// random keys stays within ~1.3x for small fleets.
const DefaultReplicas = 64

// NewRing builds a ring over the given member names. Names must be
// non-empty and unique — the name is the routing identity.
func NewRing(names []string, replicas int) (*Ring, error) {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	seen := make(map[string]bool, len(names))
	sorted := make([]string, 0, len(names))
	for _, n := range names {
		if n == "" {
			return nil, fmt.Errorf("shard: empty shard name")
		}
		if seen[n] {
			return nil, fmt.Errorf("shard: duplicate shard name %q", n)
		}
		seen[n] = true
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	r := &Ring{
		replicas: replicas,
		points:   make([]uint64, 0, len(sorted)*replicas),
		owners:   make([]string, 0, len(sorted)*replicas),
		names:    sorted,
	}
	for _, n := range sorted {
		for i := 0; i < replicas; i++ {
			r.points = append(r.points, ringHash(n+"#"+strconv.Itoa(i)))
			r.owners = append(r.owners, n)
		}
	}
	// Sort points and owners together; break hash ties by owner name so
	// the ring is a pure function of its membership.
	idx := make([]int, len(r.points))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if r.points[idx[a]] != r.points[idx[b]] {
			return r.points[idx[a]] < r.points[idx[b]]
		}
		return r.owners[idx[a]] < r.owners[idx[b]]
	})
	points := make([]uint64, len(idx))
	owners := make([]string, len(idx))
	for i, j := range idx {
		points[i] = r.points[j]
		owners[i] = r.owners[j]
	}
	r.points, r.owners = points, owners
	return r, nil
}

// Lookup returns the member owning key, or "" on an empty ring.
func (r *Ring) Lookup(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i] >= h })
	if i == len(r.points) {
		i = 0 // wrap: the first point owns the arc past the last one
	}
	return r.owners[i]
}

// LookupN returns the first n distinct members clockwise from key's
// position: index 0 is the owner (same member Lookup returns), index 1
// the session's replication follower, and so on. Fewer than n members
// returns them all; an empty ring returns nil. Because the walk is a
// pure function of (membership, key), every router and every worker
// derive the identical owner/follower chain independently — the
// property the replica-placement tests pin down.
func (r *Ring) LookupN(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.names) {
		n = len(r.names)
	}
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i] >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for j := 0; j < len(r.points) && len(out) < n; j++ {
		owner := r.owners[(i+j)%len(r.points)]
		if !seen[owner] {
			seen[owner] = true
			out = append(out, owner)
		}
	}
	return out
}

// Follower returns the member that holds self's replica of key: the
// next distinct member after self on key's chain (LookupN order),
// wrapping from the last member back to the owner. It reports false
// when self is not a member or is the only one. Workers wire their
// replication from this rule, so self may sit anywhere on the chain:
// the owner ships to the second member, and a follower promoted into
// ownership ships to the member after it.
func (r *Ring) Follower(key, self string) (string, bool) {
	chain := r.LookupN(key, len(r.names))
	for i, name := range chain {
		if name == self && len(chain) > 1 {
			return chain[(i+1)%len(chain)], true
		}
	}
	return "", false
}

// FleetConfig is the replication topology a worker receives at POST
// /v1/replica/fleet: which ring member this process is, and the full
// membership. Each member's name is its identity on the ring; its addr
// is where journal records ship. Every member must receive the same
// membership, each with its own self, for owner/follower chains to
// agree fleet-wide.
type FleetConfig struct {
	Self     string  `json:"self"`
	Replicas int     `json:"replicas"` // virtual nodes per member (0 = ring default)
	Members  []Shard `json:"members"`
}

// Planner validates the topology and returns the worker's follower
// planner: session id -> address of Ring.Follower(id, Self). The worker
// derives each session's follower from the same (membership, id) the
// router hashes, with no coordination between them. Empty membership
// returns a nil planner, which turns replication off.
func (c FleetConfig) Planner() (engine.ReplicaPlanner, error) {
	if len(c.Members) == 0 {
		return nil, nil
	}
	names := make([]string, 0, len(c.Members))
	addrOf := make(map[string]string, len(c.Members))
	selfKnown := false
	for _, m := range c.Members {
		if m.Name == "" || m.Addr == "" {
			return nil, fmt.Errorf("member needs both name and addr: %+v", m)
		}
		names = append(names, m.Name)
		addrOf[m.Name] = strings.TrimRight(m.Addr, "/")
		if m.Name == c.Self {
			selfKnown = true
		}
	}
	if !selfKnown {
		return nil, fmt.Errorf("self %q is not in members", c.Self)
	}
	ring, err := NewRing(names, c.Replicas)
	if err != nil {
		return nil, err
	}
	self := c.Self
	return func(id string) (string, bool) {
		next, ok := ring.Follower(id, self)
		return addrOf[next], ok
	}, nil
}

// Names returns the ring's members in sorted order. The slice is shared
// — callers must not mutate it.
func (r *Ring) Names() []string { return r.names }

// Replicas returns the virtual-node count per member.
func (r *Ring) Replicas() int { return r.replicas }
