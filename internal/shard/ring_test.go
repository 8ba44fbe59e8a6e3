package shard

import (
	"fmt"
	"strings"
	"testing"
)

func TestRingDeterministic(t *testing.T) {
	a, err := NewRing([]string{"w2", "w0", "w1"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing([]string{"w0", "w1", "w2"}, 64) // order must not matter
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("s%d", i)
		if a.Lookup(key) != b.Lookup(key) {
			t.Fatalf("key %q: %q vs %q", key, a.Lookup(key), b.Lookup(key))
		}
	}
}

// TestRingPlacementGolden pins where sessions land across builds: the
// owner (Lookup) and follower (Follower of the owner) of fixed ids on
// a fixed three-member ring. Placement decides which worker's disk
// holds a session's journal and which holds its replica, so a change
// to the ring hash strands every journal a fleet already wrote.
// TestRingDeterministic cannot catch that: it compares two rings built
// by the same binary.
func TestRingPlacementGolden(t *testing.T) {
	r, err := NewRing([]string{"w0", "w1", "w2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ id, owner, follower string }{
		{"s1", "w1", "w0"},
		{"s2", "w0", "w1"},
		{"s3", "w1", "w2"},
		{"s4", "w0", "w2"},
		{"s5", "w1", "w2"},
		{"s6", "w2", "w0"},
		{"s7", "w1", "w2"},
		{"s8", "w0", "w1"},
		{"s9", "w1", "w0"},
		{"s10", "w1", "w2"},
		{"fo1", "w0", "w1"},
		{"torn1", "w1", "w2"},
		{"r00000000000000a7", "w0", "w1"},
		{"r9e3779b97f4a7c15", "w0", "w2"},
		{"x.tmp-1", "w2", "w0"},
	} {
		owner := r.Lookup(c.id)
		follower, ok := r.Follower(c.id, owner)
		if owner != c.owner || !ok || follower != c.follower {
			t.Errorf("%s: owner %s, follower %s (%v); pinned %s, %s",
				c.id, owner, follower, ok, c.owner, c.follower)
		}
	}
}

func TestRingBalance(t *testing.T) {
	names := []string{"w0", "w1", "w2", "w3"}
	r, err := NewRing(names, 0) // 0 selects DefaultReplicas
	if err != nil {
		t.Fatal(err)
	}
	if r.Replicas() != DefaultReplicas {
		t.Fatalf("replicas %d", r.Replicas())
	}
	counts := map[string]int{}
	const keys = 10000
	for i := 0; i < keys; i++ {
		counts[r.Lookup(fmt.Sprintf("r%016x", splitmix64(uint64(i))))]++
	}
	for _, n := range names {
		// Every shard must carry a real share: at 64 virtual nodes the
		// max/min ratio stays well under 2, so a floor at half the fair
		// share is a loose but meaningful bound.
		if counts[n] < keys/len(names)/2 {
			t.Fatalf("shard %s owns only %d of %d keys: %v", n, counts[n], keys, counts)
		}
	}
}

// TestRingStability: growing the fleet by one shard must only move the
// keys the new shard takes over — every other key keeps its owner.
// That is the consistent-hashing property the router's failover story
// rests on.
func TestRingStability(t *testing.T) {
	small, err := NewRing([]string{"w0", "w1", "w2", "w3"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	big, err := NewRing([]string{"w0", "w1", "w2", "w3", "w4"}, 64)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 10000
	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("s%d", i)
		was, now := small.Lookup(key), big.Lookup(key)
		if was != now {
			if now != "w4" {
				t.Fatalf("key %q moved %q -> %q, not to the new shard", key, was, now)
			}
			moved++
		}
	}
	// Expect ~1/5 of keys to move; allow a generous band around it.
	if moved == 0 || moved > 2*keys/5 {
		t.Fatalf("%d of %d keys moved adding one shard to four", moved, keys)
	}
}

func TestRingValidation(t *testing.T) {
	if _, err := NewRing([]string{"a", "a"}, 8); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := NewRing([]string{""}, 8); err == nil {
		t.Fatal("empty name accepted")
	}
	empty, err := NewRing(nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := empty.Lookup("x"); got != "" {
		t.Fatalf("empty ring returned %q", got)
	}
}

// TestRingFollower pins the follower rule every worker's replication
// planner uses: the member after self on the key's chain, wrapping
// from the last member to the owner. The owner's follower is the
// second member of the chain, the one the supervisor promotes first.
func TestRingFollower(t *testing.T) {
	three, err := NewRing([]string{"w0", "w1", "w2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	one, err := NewRing([]string{"w0"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	const key = "sess-7"
	chain := three.LookupN(key, 3)
	for _, tc := range []struct {
		name string
		ring *Ring
		self string
		want string
		ok   bool
	}{
		{"owner maps to the next member", three, chain[0], chain[1], true},
		{"middle member maps to the last", three, chain[1], chain[2], true},
		{"last member wraps to the owner", three, chain[2], chain[0], true},
		{"single member has no follower", one, "w0", "", false},
		{"absent self has none", three, "w9", "", false},
	} {
		if got, ok := tc.ring.Follower(key, tc.self); got != tc.want || ok != tc.ok {
			t.Errorf("%s: Follower(%q, %q) = (%q, %t), want (%q, %t)",
				tc.name, key, tc.self, got, ok, tc.want, tc.ok)
		}
	}
	for i := 0; i < 500; i++ {
		id := fmt.Sprintf("s%d", i)
		got, ok := three.Follower(id, three.Lookup(id))
		if want := three.LookupN(id, 2)[1]; !ok || got != want {
			t.Fatalf("%s: owner's follower (%q, %t), chain says %q", id, got, ok, want)
		}
	}
}

// TestFleetConfig pins the /v1/replica/fleet body: an incomplete
// member or a self outside the membership is refused, a trailing slash
// on an addr is trimmed, empty membership turns replication off, and
// every planned address is that of the member Ring.Follower names.
func TestFleetConfig(t *testing.T) {
	members := []Shard{{Name: "w0", Addr: "http://a/"}, {Name: "w1", Addr: "http://b"}, {Name: "w2", Addr: "http://c"}}
	for _, tc := range []struct {
		name string
		cfg  FleetConfig
		want string
	}{
		{"missing name", FleetConfig{Self: "w0", Members: []Shard{{Name: "w0", Addr: "http://a"}, {Addr: "http://b"}}},
			"member needs both name and addr"},
		{"missing addr", FleetConfig{Self: "w0", Members: []Shard{{Name: "w0"}}}, "member needs both name and addr"},
		{"absent self", FleetConfig{Members: members}, `self "" is not in members`},
		{"duplicate name", FleetConfig{Self: "w0", Members: []Shard{{Name: "w0", Addr: "http://a"}, {Name: "w0", Addr: "http://b"}}},
			"duplicate shard name"},
	} {
		plan, err := tc.cfg.Planner()
		if err == nil || !strings.Contains(err.Error(), tc.want) || plan != nil {
			t.Errorf("%s: Planner() error %v, want one containing %q and no planner", tc.name, err, tc.want)
		}
	}
	if plan, err := (FleetConfig{Self: "w0"}).Planner(); err != nil || plan != nil {
		t.Errorf("empty membership: planner set %t, error %v; want neither", plan != nil, err)
	}

	ring, err := NewRing([]string{"w0", "w1", "w2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	addrOf := map[string]string{"w0": "http://a", "w1": "http://b", "w2": "http://c"} // w0's slash trimmed
	for _, self := range ring.Names() {
		plan, err := FleetConfig{Self: self, Members: members}.Planner()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			id := fmt.Sprintf("s%d", i)
			next, ok := ring.Follower(id, self)
			got, gotOK := plan(id)
			if got != addrOf[next] || gotOK != ok {
				t.Fatalf("self %s, id %s: planner (%q, %t), Follower names %q (%t)", self, id, got, gotOK, next, ok)
			}
		}
	}
}
