package shard

import (
	"fmt"
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
