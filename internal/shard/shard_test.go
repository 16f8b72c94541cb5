package shard

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sharegraph"
	"repro/internal/workload"
)

func newRing(t testing.TB, replicas int, opts Options) *Runtime {
	t.Helper()
	g := sharegraph.Ring(replicas)
	p, err := core.NewEdgeIndexed(g)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(g, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRouterRoundTrip(t *testing.T) {
	ro := Router{Spaces: 100, Shards: 8}
	for _, s := range []int{0, 7, 8, 99} {
		key := ro.Key(s, "x/with/slashes")
		route, err := ro.Resolve(key)
		if err != nil {
			t.Fatalf("Resolve(%q): %v", key, err)
		}
		if route.Space != s || route.Shard != s%8 || route.Reg != "x/with/slashes" {
			t.Errorf("Resolve(%q) = %+v", key, route)
		}
	}
	for _, bad := range []string{"", "x3", "s5", "s100/x", "s-1/x", "sfoo/x"} {
		if _, err := ro.Resolve(bad); err == nil {
			t.Errorf("Resolve(%q): expected error", bad)
		}
	}
}

// TestShardedBasicConvergence runs an audited multi-tenant workload and
// checks every space's oracle stays clean and every space converged to a
// consistent final state across replicas of shared registers.
func TestShardedBasicConvergence(t *testing.T) {
	const spaces = 12
	r := newRing(t, 5, Options{Spaces: spaces, Audit: true, Seed: 3, FlushSize: 8})
	defer r.Close()
	ms, err := workload.GenerateMulti(r.Graph(), workload.MultiOptions{Spaces: spaces, Ops: 1500, Zipf: 1.3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if v := r.RunMulti(ms, 0); len(v) > 0 {
		t.Fatalf("%d oracle violations, first: %v", len(v), v[0])
	}
	for s := 0; s < spaces; s++ {
		snaps := r.StateSnapshot(s)
		for _, x := range r.Graph().Registers() {
			var want core.Value
			seen := false
			for _, rep := range r.Graph().Holders(x) {
				v, ok := snaps[rep][x]
				if !ok {
					continue
				}
				if seen && v != want {
					t.Fatalf("space %d register %s: replicas diverge (%d vs %d)", s, x, v, want)
				}
				want, seen = v, true
			}
		}
	}
	if st := r.Stats(); st.Batches > 0 && st.AvgBatch() < 1 {
		t.Errorf("stats inconsistent: %+v", st)
	}
}

// TestShardedBackpressureTinyInboxes is the deadlock hunt: one-slot
// shard inboxes, single-envelope batches, many spaces funneled onto few
// shards, and concurrent writers — the Send path must block and recover
// rather than deadlock against delivering workers (run under -race in
// CI).
func TestShardedBackpressureTinyInboxes(t *testing.T) {
	const spaces = 16
	r := newRing(t, 4, Options{
		Spaces: spaces, Shards: 2, Workers: 2,
		InboxCapacity: 1, FlushSize: 1,
		Seed: 7,
	})
	defer r.Close()
	ms, err := workload.GenerateMulti(r.Graph(), workload.MultiOptions{Spaces: spaces, Ops: 2000, Zipf: 1.2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		r.RunMulti(ms, 8)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("sharded run deadlocked under tiny inboxes")
	}
}

// TestShardedWriteErrors covers the validation paths.
func TestShardedWriteErrors(t *testing.T) {
	r := newRing(t, 3, Options{Spaces: 2})
	if err := r.Write(5, 0, "x0", 1); err == nil {
		t.Error("out-of-range space accepted")
	}
	if err := r.Write(0, 0, "not-a-register", 1); err == nil {
		t.Error("unknown register accepted")
	}
	if _, ok := r.Read(9, 0, "x0"); ok {
		t.Error("out-of-range space read ok")
	}
	r.Close()
	if err := r.Write(0, 0, "x0", 1); err == nil {
		t.Error("write after close accepted")
	}
	r.Close() // idempotent
}

// TestShardedSelfClockedFlush pins self-clocked batching: a write staged
// behind a batch in delivery reaches its holders once that delivery
// finishes, with no Quiesce and no timer to push it. Holding the
// destination node's lock keeps the first write's batch in flight while
// the second write stages behind it.
func TestShardedSelfClockedFlush(t *testing.T) {
	r := newRing(t, 4, Options{Spaces: 1, Workers: 1, FlushSize: 1 << 20})
	defer r.Close()
	g := r.Graph()
	var reg sharegraph.Register
	var owner, holder sharegraph.ReplicaID
	for _, x := range g.Registers() {
		if h := g.Holders(x); len(h) >= 2 {
			reg, owner, holder = x, h[0], h[1]
			break
		}
	}
	ob := &r.out[0]
	outbox := func() (staged bool, inflight int) {
		ob.mu.Lock()
		defer ob.mu.Unlock()
		return ob.cur != nil, ob.inflight
	}

	mu := r.lockFor(0, holder)
	mu.Lock()
	if err := r.Write(0, owner, reg, 1); err != nil {
		mu.Unlock()
		t.Fatal(err)
	}
	if err := r.Write(0, owner, reg, 2); err != nil {
		mu.Unlock()
		t.Fatal(err)
	}
	staged, inflight := outbox()
	mu.Unlock()
	if !staged || inflight != 1 {
		t.Fatalf("second write: staged=%v inflight=%d, want it staged behind one batch in flight", staged, inflight)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		if v, ok := r.Read(0, holder, reg); ok && v == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("staged write never delivered: nothing pushed it when the batch ahead of it finished")
		}
		time.Sleep(100 * time.Microsecond)
	}

	r.Quiesce()
	for i := range r.out {
		ob = &r.out[i]
		if staged, inflight := outbox(); staged || inflight != 0 {
			t.Errorf("outbox %d after Quiesce: staged=%v inflight=%d, want empty", i, staged, inflight)
		}
	}
}

// TestShardedRejectedPushRetires pins the shutdown path of the in-flight
// accounting: a batch the engine rejects retires like a delivered one,
// and the batch staged behind it is then pushed, rejected and retired
// in turn. With FlushSize 2, a write fanning out to three holders
// detaches one full batch and stages its third envelope behind it.
func TestShardedRejectedPushRetires(t *testing.T) {
	g := sharegraph.FullReplication(4, 1)
	p, err := core.NewEdgeIndexed(g)
	if err != nil {
		t.Fatal(err)
	}
	r, err := New(g, p, Options{Spaces: 1, FlushSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.eng.Close() // from here on the engine rejects every push
	if err := r.Write(0, 0, g.Registers()[0], 1); err != nil {
		t.Fatal(err)
	}
	ob := &r.out[0]
	ob.mu.Lock()
	staged, inflight := ob.cur != nil, ob.inflight
	ob.mu.Unlock()
	if staged || inflight != 0 {
		t.Errorf("outbox after rejected pushes: staged=%v inflight=%d, want empty", staged, inflight)
	}
	if st := r.Stats(); st.Batches != 0 {
		t.Errorf("rejected batches counted as accepted: %+v", st)
	}
	if live := r.meta.Live(); live != 0 {
		t.Errorf("%d metadata buffers never returned to the pool", live)
	}
}

// TestShardedConcurrentMixedSpaces hammers many goroutines across many
// spaces at once — the routing layer must keep spaces isolated (values
// written in one space never bleed into another).
func TestShardedConcurrentMixedSpaces(t *testing.T) {
	const spaces = 8
	r := newRing(t, 4, Options{Spaces: spaces, Seed: 5})
	defer r.Close()
	g := r.Graph()
	reg := g.Registers()[0]
	owner := g.Holders(reg)[0]
	var wg sync.WaitGroup
	for s := 0; s < spaces; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := r.Write(s, owner, reg, core.Value(1000*s+i)); err != nil {
					t.Errorf("space %d write %d: %v", s, i, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	r.Quiesce()
	for s := 0; s < spaces; s++ {
		want := core.Value(1000*s + 199)
		for _, rep := range g.Holders(reg) {
			if v, ok := r.Read(s, rep, reg); !ok || v != want {
				t.Fatalf("space %d replica %d: %v (ok=%v), want %v — space isolation broken", s, rep, v, ok, want)
			}
		}
	}
}

// TestShardedBatchingSteadyStateZeroAlloc asserts the acceptance
// criterion: once warmed, staging a write, flushing its batch and
// delivering it end to end performs no allocation. A single worker keeps
// the measurement stable; the cycle ends with
// Quiesce so every Meta buffer returns to the pool before the next
// cycle draws from it.
func TestShardedBatchingSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode: sync.Pool sheds items, so alloc accounting is meaningless")
	}
	r := newRing(t, 4, Options{
		Spaces: 2, Shards: 1, Workers: 1,
		FlushSize: 16, Seed: 1,
	})
	defer r.Close()
	g := r.Graph()
	reg := g.Registers()[0]
	owner := g.Holders(reg)[0]
	cycle := func() {
		for i := 0; i < 64; i++ {
			if err := r.Write(i%2, owner, reg, core.Value(i)); err != nil {
				t.Fatal(err)
			}
		}
		r.Quiesce()
	}
	for i := 0; i < 16; i++ { // warm pools, slice capacities and inboxes
		cycle()
	}
	if avg := testing.AllocsPerRun(100, cycle); avg != 0 {
		t.Errorf("sharded batching hot path allocates: %.2f allocs per 64-write cycle", avg)
	}
}

// TestShardDefaults pins the documented defaulting rules.
func TestShardDefaults(t *testing.T) {
	r := newRing(t, 3, Options{Spaces: 2})
	defer r.Close()
	if r.Shards() != 2 { // clamped to Spaces
		t.Errorf("Shards = %d, want 2 (clamped to Spaces)", r.Shards())
	}
	r2 := newRing(t, 3, Options{Spaces: 1000, Workers: 2})
	defer r2.Close()
	if r2.Shards() != 8 {
		t.Errorf("Shards = %d, want 4×workers = 8", r2.Shards())
	}
	ro := r2.Router()
	if ro.Spaces != 1000 || ro.Shards != 8 {
		t.Errorf("Router = %+v", ro)
	}
	if _, err := New(r.Graph(), nil, Options{Spaces: 0}); err == nil {
		t.Error("zero spaces accepted")
	}
}

func BenchmarkShardWriteStage(b *testing.B) {
	r := newRing(b, 8, Options{Spaces: 64, FlushSize: 32, Seed: 1})
	defer r.Close()
	g := r.Graph()
	reg := g.Registers()[0]
	owner := g.Holders(reg)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Write(i%64, owner, reg, core.Value(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	r.Quiesce()
}
