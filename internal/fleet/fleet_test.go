package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"phasetune/internal/client"
	"phasetune/internal/shard"
)

// TestFleet builds both binaries once. A server that exits before its
// banner must fail Start at once with its own message; a restarted
// session owner must resume the session through the router.
func TestFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server binaries")
	}
	serveBin, routerBin, err := Build(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	t.Run("exit before banner", func(t *testing.T) {
		start := time.Now()
		_, err := Start(serveBin, "-recover")
		if err == nil || !strings.Contains(err.Error(), "-recover requires -journal-dir") {
			t.Fatalf("Start with -recover and no journal dir: %v", err)
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("Start took %v to report an exit at startup", d)
		}
	})

	t.Run("restart", func(t *testing.T) {
		f, err := New(Config{
			ServeBin: serveBin, RouterBin: routerBin, Size: 3,
			ServeArgs: []string{"-workers", "1"},
			// With no supervisor to promote the owner's sessions, only
			// Restart's repoint brings them back.
			RouterArgs: []string{"-supervise=false"},
			Replicas:   true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Stop()

		cl, err := client.New(client.Config{BaseURL: f.Router().URL, HTTPClient: http.DefaultClient, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		s, err := cl.CreateSession(ctx, client.CreateSessionRequest{Scenario: "b", Strategy: "DC", Seed: 3, Tiles: 4})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Step(ctx); err != nil {
			t.Fatal(err)
		}

		ring, err := shard.NewRing(f.Names(), 0)
		if err != nil {
			t.Fatal(err)
		}
		owner := -1
		for i, name := range f.Names() {
			if name == ring.Lookup(s.Info.ID) {
				owner = i
			}
		}
		// Restart swaps the member's process while another goroutine
		// reads member addresses.
		old := f.Worker(owner)
		var reader sync.WaitGroup
		reader.Add(1)
		go func() {
			defer reader.Done()
			for i := 0; i < 50; i++ {
				_ = f.Worker(owner).URL
				time.Sleep(time.Millisecond)
			}
		}()
		p, err := f.Restart(owner)
		reader.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if p.URL == old.URL || f.Worker(owner) != p {
			t.Fatalf("restarted %s at %s, fleet holds %s (was %s)", f.Names()[owner], p.URL, f.Worker(owner).URL, old.URL)
		}
		resp, err := http.Get(p.URL + "/v1/replica/fleet")
		if err != nil {
			t.Fatal(err)
		}
		var topo shard.FleetConfig
		err = json.NewDecoder(resp.Body).Decode(&topo)
		resp.Body.Close()
		if err != nil || topo.Self != f.Names()[owner] || len(topo.Members) != 3 || topo.Members[owner].Addr != p.URL {
			t.Fatalf("restarted owner's replica topology %+v (err %v), want self %s at %s", topo, err, f.Names()[owner], p.URL)
		}

		if _, err := s.Step(ctx); err != nil {
			t.Fatal(err)
		}
		res, err := s.Result(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations != 2 {
			t.Fatalf("session has %d iterations after a step on each side of the restart, want 2", res.Iterations)
		}

		f.Stop()
		f.Stop()
		if resp, err := http.Get(p.URL + "/healthz"); err == nil {
			resp.Body.Close()
			t.Fatal("restarted worker still answers after Stop")
		}
	})
}
