package causality

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/sharegraph"
	"repro/internal/workload"
)

// The persistent-set tracker must be observationally identical to the
// flat-bitset reference: same UpdateIDs, same violations in the same
// order, same causal-past sizes, same deliverability answers — on clean
// schedules, on schedules that violate safety, and under the
// client-server extension, and across crash/restart checkpoint
// rollbacks. These tests drive both through identical event traces
// derived from randomized workload.OwnerWrites runs.

// oracleEvent is one oracle call in a replayable trace.
type oracleEvent struct {
	kind    int // 0 issue, 1 apply, 2 client access, 3 client write, 4 checkpoint, 5 restore
	replica sharegraph.ReplicaID
	reg     sharegraph.Register
	// update names the trace-relative index of the issue event an apply
	// refers to (UpdateIDs are allocated identically on both sides, so
	// the nth issued update has the same ID in each tracker).
	update int
	client sharegraph.ClientID
}

// genTrace turns an OwnerWrites script into an oracle event trace:
// issues in per-replica script order, deliveries to holders interleaved
// by rng. With violate set, deliveries go out of causal order and a few
// duplicate and foreign applies are thrown in, so the violation paths
// are compared too; otherwise deliveries follow issue order per holder
// (single-writer registers make that causally safe). With restarts set,
// replicas now and then export a checkpoint, and later roll back to
// their latest one; every update applied there since the checkpoint,
// its own issues included, is then delivered again, ahead of all other
// pending deliveries and in its original order, so an in-order trace
// stays causally safe.
func genTrace(g *sharegraph.Graph, script workload.Script, rng *rand.Rand, violate, clients, restarts bool) []oracleEvent {
	n := g.NumReplicas()
	queues := make([][]workload.Op, n)
	for _, op := range script {
		if !op.IsRead {
			queues[op.Replica] = append(queues[op.Replica], op)
		}
	}
	type delivery struct {
		to sharegraph.ReplicaID
		up int
	}
	var trace []oracleEvent
	var pending []delivery
	issued := 0
	// sinceCk[r] lists the updates applied at r since its last checkpoint
	// (nil slice, no checkpoint yet: hasCk[r] is false).
	sinceCk := make([][]int, n)
	hasCk := make([]bool, n)
	for {
		if restarts {
			r := rng.Intn(n)
			switch {
			case rng.Intn(60) == 0:
				trace = append(trace, oracleEvent{kind: 4, replica: sharegraph.ReplicaID(r)})
				sinceCk[r], hasCk[r] = nil, true
			case hasCk[r] && rng.Intn(120) == 0:
				trace = append(trace, oracleEvent{kind: 5, replica: sharegraph.ReplicaID(r)})
				redo := make([]delivery, 0, len(sinceCk[r])+len(pending))
				for _, up := range sinceCk[r] {
					redo = append(redo, delivery{to: sharegraph.ReplicaID(r), up: up})
				}
				pending = append(redo, pending...)
				sinceCk[r] = nil
			}
		}
		var writers []int
		for r := 0; r < n; r++ {
			if len(queues[r]) > 0 {
				writers = append(writers, r)
			}
		}
		if len(writers) == 0 && len(pending) == 0 {
			break
		}
		if len(writers) > 0 && (len(pending) == 0 || rng.Intn(2) == 0) {
			r := writers[rng.Intn(len(writers))]
			op := queues[r][0]
			queues[r] = queues[r][1:]
			if clients && rng.Intn(8) == 0 {
				c := sharegraph.ClientID(rng.Intn(3))
				trace = append(trace, oracleEvent{kind: 2, replica: op.Replica, client: c})
				trace = append(trace, oracleEvent{kind: 3, replica: op.Replica, reg: op.Reg, client: c})
			} else {
				trace = append(trace, oracleEvent{kind: 0, replica: op.Replica, reg: op.Reg})
			}
			sinceCk[op.Replica] = append(sinceCk[op.Replica], issued)
			for _, h := range g.Holders(op.Reg) {
				if h != op.Replica {
					pending = append(pending, delivery{to: h, up: issued})
				}
			}
			issued++
			continue
		}
		pick := 0
		if violate {
			pick = rng.Intn(len(pending)) // arbitrary reordering
		}
		d := pending[pick]
		pending = append(pending[:pick], pending[pick+1:]...)
		trace = append(trace, oracleEvent{kind: 1, replica: d.to, update: d.up})
		sinceCk[d.to] = append(sinceCk[d.to], d.up)
		if violate && rng.Intn(40) == 0 {
			trace = append(trace, oracleEvent{kind: 1, replica: d.to, update: d.up}) // duplicate
		}
		if violate && rng.Intn(40) == 0 {
			trace = append(trace, oracleEvent{kind: 1, replica: d.to, update: issued + 1000}) // foreign
		}
	}
	return trace
}

// replay drives one tracker through a trace, returning the IDs the
// issue events produced.
func replay(t *testing.T, tr *Tracker, trace []oracleEvent) []UpdateID {
	t.Helper()
	var ids []UpdateID
	cks := make(map[sharegraph.ReplicaID]*ReplicaCheckpoint)
	for _, ev := range trace {
		switch ev.kind {
		case 0:
			ids = append(ids, tr.OnIssue(ev.replica, ev.reg))
		case 1:
			id := UpdateID(ev.update + 1000000) // unknown → foreign
			if ev.update < len(ids) {
				id = ids[ev.update]
			}
			tr.OnApply(ev.replica, id)
		case 2:
			tr.OnClientAccess(ev.client, ev.replica)
		case 3:
			ids = append(ids, tr.OnClientWrite(ev.client, ev.replica, ev.reg))
		case 4:
			cks[ev.replica] = tr.ExportCheckpoint(ev.replica)
		case 5:
			if err := tr.RestoreCheckpoint(ev.replica, cks[ev.replica]); err != nil {
				t.Fatalf("%s: restore replica %d: %v", tr.Impl(), ev.replica, err)
			}
		}
	}
	return ids
}

func TestTrackerDifferentialFlatVsPersistent(t *testing.T) {
	graphs := []struct {
		name string
		g    *sharegraph.Graph
	}{
		{"ring8", sharegraph.Ring(8)},
		{"fig5", sharegraph.Fig5Example()},
		{"randomk", sharegraph.RandomK(10, 30, 3, 5)},
	}
	for _, tc := range graphs {
		for seed := int64(1); seed <= 6; seed++ {
			for _, mode := range []struct {
				name                       string
				violate, clients, restarts bool
				mustBeClean                bool // in-order, no client hops → no violations
				ops                        int
			}{
				{"clean", false, false, false, true, 400},
				// Client hops can make an in-order delivery trace report
				// genuine stale accesses (the client saw a past the next
				// replica lacks), so only the no-client traces assert Ok.
				{"clients", false, true, false, false, 400},
				{"violate", true, true, false, false, 400},
				// Rollbacks shrink a replica's known past; the persistent
				// oracle must then stop trusting what it merged before.
				// The subtrees it skips on trust exist only once the
				// history spans several 512-update chunks.
				{"restarts", false, false, true, true, 3000},
				{"violate-restarts", true, true, true, false, 1200},
			} {
				violate := mode.violate
				rng := rand.New(rand.NewSource(seed))
				script := workload.OwnerWrites(tc.g, mode.ops, seed)
				trace := genTrace(tc.g, script, rng, violate, mode.clients, mode.restarts)

				flat := NewFlatTracker(tc.g)
				pers := NewTracker(tc.g)
				if flat.Impl() != "flat" || pers.Impl() != "persistent" {
					t.Fatalf("Impl() labels wrong: %q %q", flat.Impl(), pers.Impl())
				}
				fids := replay(t, flat, trace)
				pids := replay(t, pers, trace)
				if !reflect.DeepEqual(fids, pids) {
					t.Fatalf("%s seed %d %s: issued IDs differ", tc.name, seed, mode.name)
				}
				if mode.mustBeClean && !flat.Ok() {
					t.Fatalf("%s seed %d: in-order trace violated safety under the reference oracle: %v",
						tc.name, seed, flat.Violations())
				}
				if fv, pv := flat.Violations(), pers.Violations(); !reflect.DeepEqual(fv, pv) {
					t.Fatalf("%s seed %d %s: violations differ:\nflat: %v\npersistent: %v",
						tc.name, seed, mode.name, fv, pv)
				}
				if fl, pl := flat.CheckLiveness(), pers.CheckLiveness(); !reflect.DeepEqual(fl, pl) {
					t.Fatalf("%s seed %d %s: liveness verdicts differ", tc.name, seed, mode.name)
				}
				if flat.NumUpdates() != pers.NumUpdates() {
					t.Fatalf("%s seed %d: NumUpdates differ", tc.name, seed)
				}
				for id := 0; id < flat.NumUpdates(); id++ {
					if f, p := flat.CausalPastSize(UpdateID(id)), pers.CausalPastSize(UpdateID(id)); f != p {
						t.Fatalf("%s seed %d %s: CausalPastSize(%d) = %d vs %d",
							tc.name, seed, mode.name, id, f, p)
					}
					for r := 0; r < tc.g.NumReplicas(); r++ {
						j := sharegraph.ReplicaID(r)
						if flat.Applied(j, UpdateID(id)) != pers.Applied(j, UpdateID(id)) {
							t.Fatalf("%s seed %d: Applied(%d,%d) differs", tc.name, seed, r, id)
						}
						if flat.OracleDeliverable(j, UpdateID(id)) != pers.OracleDeliverable(j, UpdateID(id)) {
							t.Fatalf("%s seed %d: OracleDeliverable(%d,%d) differs", tc.name, seed, r, id)
						}
					}
				}
				for c := 0; c < 3; c++ {
					cid := sharegraph.ClientID(c)
					if flat.ClientPastSize(cid) != pers.ClientPastSize(cid) {
						t.Fatalf("%s seed %d: ClientPastSize(%d) differs", tc.name, seed, c)
					}
				}
			}
		}
	}
}

// driveOracle replays a straightforward audited run — every write
// applied at every holder in causal order — at the given op count.
func driveOracle(tr *Tracker, g *sharegraph.Graph, script workload.Script) {
	for _, op := range script {
		if op.IsRead {
			continue
		}
		id := tr.OnIssue(op.Replica, op.Reg)
		for _, h := range g.Holders(op.Reg) {
			if h != op.Replica {
				tr.OnApply(h, id)
			}
		}
	}
}

// totalAllocBytes measures the bytes allocated by fn. Benchmarks run
// sequentially, so TotalAlloc deltas are attributable to fn.
func totalAllocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// BenchmarkTrackerMemory compares allocated bytes per audited 10k-op run
// between the flat-clone oracle and the persistent copy-on-write oracle,
// and fails unless the persistent one is strictly cheaper. The flat
// representation clones one causal past per issue — quadratic bytes —
// while the persistent snapshot is O(1) sharing, so the gap widens with
// op count.
func BenchmarkTrackerMemory(b *testing.B) {
	const ops = 10000
	g := sharegraph.Ring(16)
	script := workload.OwnerWrites(g, ops, 1)
	flatB := totalAllocBytes(func() { driveOracle(NewFlatTracker(g), g, script) })
	persB := totalAllocBytes(func() { driveOracle(NewTracker(g), g, script) })
	if persB >= flatB {
		b.Fatalf("persistent oracle allocated %d B/run, flat %d B/run — persistent must be strictly below flat at %d ops",
			persB, flatB, ops)
	}
	b.ReportMetric(float64(flatB), "flatB/run")
	b.ReportMetric(float64(persB), "persB/run")
	b.ReportMetric(float64(flatB)/float64(persB), "flat/pers")
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		driveOracle(NewTracker(g), g, script)
	}
}

// BenchmarkTrackerApplyHistory measures what one apply costs as the
// history behind it grows. A Ring(64) owner-writes run applies every
// write at its neighbour holder, so causal pasts spread round the ring
// and each one covers most of the history. The tracker is first filled
// with the sub-benchmark's number of updates, untimed; each op then
// issues the script's next write and applies it at its other holder,
// and the history is refilled once it doubles. ns/apply is the time
// per apply, the issues that precede them included.
func BenchmarkTrackerApplyHistory(b *testing.B) {
	g := sharegraph.Ring(64)
	holders := make(map[sharegraph.Register][]sharegraph.ReplicaID)
	for _, x := range g.Registers() {
		holders[x] = g.Holders(x)
	}
	for _, size := range []struct {
		name string
		hist int
	}{{"4k", 4096}, {"64k", 65536}} {
		b.Run(size.name, func(b *testing.B) {
			script := workload.OwnerWrites(g, 2*size.hist, 1)
			// fill runs untimed; collecting its garbage before the clock
			// restarts keeps that work out of the timed ops.
			fill := func() *Tracker {
				tr := NewTracker(g)
				driveOracle(tr, g, script[:size.hist])
				runtime.GC()
				return tr
			}
			tr := fill()
			next, applies := size.hist, 0
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if next == len(script) {
					b.StopTimer()
					tr, next = fill(), size.hist
					b.StartTimer()
				}
				op := script[next]
				next++
				id := tr.OnIssue(op.Replica, op.Reg)
				for _, h := range holders[op.Reg] {
					if h != op.Replica {
						tr.OnApply(h, id)
						applies++
					}
				}
			}
			if applies > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(applies), "ns/apply")
			}
		})
	}
}
