package shard

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sharegraph"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/workload"
)

// TestShardedMatchesIndependentClusters is the sharding acceptance
// differential: one multiplexed run of N spaces must leave every space
// in exactly the state an independent single-space sim.Cluster reaches
// on that space's script. GenerateMulti's per-space decomposition makes
// the comparison exact — PerSpace(s) is reproducible from the derived
// seed alone — and OwnerWrites' single-writer pinned values make both
// final states schedule-independent, so the snapshots must be
// byte-equal in wire.FormatSnapshots form. Any divergence is a routing,
// batching or isolation bug in the shard layer.
func TestShardedMatchesIndependentClusters(t *testing.T) {
	const (
		spaces = 24
		ops    = 4000
		seed   = 17
	)
	g := sharegraph.Ring(6)
	p, err := core.NewEdgeIndexed(g)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := workload.GenerateMulti(g, workload.MultiOptions{Spaces: spaces, Ops: ops, Zipf: 1.2, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}

	r, err := New(g, p, Options{
		Spaces: spaces, Shards: 4, Audit: true, Seed: seed,
		FlushSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if v := r.RunMulti(ms, 0); len(v) > 0 {
		t.Fatalf("sharded run: %d oracle violations, first: %v", len(v), v[0])
	}

	for s := 0; s < spaces; s++ {
		script := ms.PerSpace(s)
		ref, err := sim.NewCluster(g, p, sim.WithSeed(workload.SpaceSeed(seed, s)))
		if err != nil {
			t.Fatal(err)
		}
		if v := ref.RunScript(script); len(v) > 0 {
			ref.Close()
			t.Fatalf("independent run of space %d: %d oracle violations", s, len(v))
		}
		want := wire.FormatSnapshots(ref.StateSnapshot())
		ref.Close()
		got := wire.FormatSnapshots(r.StateSnapshot(s))
		if got != want {
			t.Errorf("space %d (%d ops) diverges:\nsharded:\n%s\nindependent:\n%s", s, len(script), got, want)
		}
	}
}
