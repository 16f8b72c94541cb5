// Command perfbench is the repository's end-to-end benchmark. It drives
// one of three runtimes — the audited sim.Cluster on Ring(64), the
// sharded runtime hosting thousands of Ring(8) spaces, and eight
// wire.Nodes on loopback TCP — with a closed loop of two driver
// goroutines, checks every run for correctness, and prints the
// end-to-end metrics, or with --trace 1 the per-layer metrics of a
// traced run. The last line of output is one JSON object.
//
//	bash perfbench/run.sh --workload ring64-audited --seed 1 --seconds 45 --trace 0
//
// See README.md for the workloads, metrics and the layer map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	goruntime "runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/sharegraph"
)

// minRounds keeps a short --seconds from starving the percentiles.
const minRounds = 3

// probeTimeout bounds a visibility probe; a write not visible by then
// counts as a failed op.
const probeTimeout = 10 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: ring64-audited, sharded-zipf-rw or tcp-ring8")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 45, "measured seconds; a traced run splits them between its two passes")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := specNamed(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		fs.Usage()
		return 2
	}
	in, err := w.gen(w.graph(), *seed)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: inputs: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%d trace=%d drivers=%d gomaxprocs=%d ncpu=%d %s/%s ops/round=%d\n",
		w.name, *seed, *seconds, *trace, drivers, goruntime.GOMAXPROCS(0), goruntime.NumCPU(), goruntime.GOOS, goruntime.GOARCH, in.ops)
	dur := time.Duration(*seconds) * time.Second
	if *trace == 1 {
		// The untraced and the traced pass share the run's time.
		dur /= 2
	}
	res := result{Metrics: map[string]metric{}}
	base, err := measure(w, in, *seed, dur, false)
	res.add(base)
	if err == nil && *trace == 0 {
		err = base.endToEnd(res.Metrics)
	}
	if err == nil && *trace == 1 {
		var traced *runStats
		traced, err = measure(w, in, *seed, dur, true)
		res.add(traced)
		if err == nil && traced.state != base.state {
			err = errors.New("traced run ended in a different state than the untraced run")
		}
		if err == nil {
			err = traced.perLayer(res.Metrics, base)
		}
	}
	res.Correct = err == nil && res.Failed == 0
	printMetrics(stdout, res.Metrics)
	if err != nil {
		fmt.Fprintf(stdout, "# FAIL: %v\n", err)
	}
	line, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	note  string  // printed on the human-readable line only
}

func (r *result) add(s *runStats) {
	if s != nil {
		r.Attempted += s.attempted
		r.Failed += s.failed
	}
}

func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		m := ms[n]
		fmt.Fprintf(w, "%-32s %16.6g %-8s %s\n", n, m.Value, m.Unit, m.note)
	}
}

// runStats is one pass (untraced or traced) of repeated rounds.
type runStats struct {
	rounds             int
	attempted, failed  int64
	setup, thr         []float64 // s, ops/s per round
	allocPerOp, heapMB []float64 // per round
	write, read, vis   [][]int64 // ns, per round
	state              string
	layers             *layerAcc // traced pass only
	syncS              []float64
}

// measure runs fresh rounds — set up, drive the whole script, sync,
// check, close — until dur has passed and at least minRounds ran. A
// round is a fixed amount of work because the oracle's cost grows with
// its history. A first round, checked like the others but not
// reported, takes the process's one-time costs (heap growth, first-touch
// page faults, socket buffers) out of the figures.
func measure(w spec, in *inputs, seed int64, dur time.Duration, traced bool) (*runStats, error) {
	warm, st := newRunStats(traced), newRunStats(traced)
	err := warm.round(w, in, seed)
	st.attempted, st.failed = warm.attempted, warm.failed
	if err != nil {
		return st, fmt.Errorf("warm-up round: %w", err)
	}
	start := time.Now()
	for st.rounds < minRounds || time.Since(start) < dur {
		if err := st.round(w, in, seed); err != nil {
			return st, fmt.Errorf("round %d: %w", st.rounds, err)
		}
		st.rounds++
	}
	return st, nil
}

func newRunStats(traced bool) *runStats {
	st := &runStats{}
	if traced {
		st.layers = &layerAcc{}
	}
	return st
}

// driver is one closed-loop client: it issues its queue in order, each
// op after the previous returned.
type driver struct {
	q                []op
	write, read, vis []int64
	failed           int64
	err              error
	buf              *spanBuf // traced pass only
}

func (st *runStats) round(w spec, in *inputs, seed int64) error {
	var ds [drivers]driver
	for i := range ds {
		n := len(in.queues[i])
		ds[i] = driver{q: in.queues[i], write: make([]int64, 0, n), read: make([]int64, 0, n), vis: make([]int64, 0, n)}
	}
	var tr *tracer
	if st.layers != nil {
		tr = newTracer(in.spaces, in.g.NumReplicas())
		for i := range ds {
			ds[i].buf = tr.newBuf()
		}
	}
	var ms goruntime.MemStats
	fullGC()
	goruntime.ReadMemStats(&ms)
	heapBase := ms.HeapAlloc

	t0 := nowNS()
	g := w.graph()
	tsStart := nowNS()
	graphs := sharegraph.BuildAllTSGraphs(g, sharegraph.LoopOptions{})
	tsBuild := nowNS() - tsStart
	proto, err := core.NewEdgeIndexedWithGraphs(g, graphs, "edge-indexed")
	if err != nil {
		return err
	}
	sys, err := w.setup(g, in, proto, tr, seed)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	setup := nowNS() - t0
	closed := false
	defer func() {
		if !closed {
			sys.close()
		}
	}()

	goruntime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	begin := nowNS()
	var wg sync.WaitGroup
	for i := range ds {
		wg.Add(1)
		go func(d *driver, id int) {
			defer wg.Done()
			d.run(id, sys, tr, w.inlineWrite)
		}(&ds[i], i)
	}
	wg.Wait()
	syncStart := nowNS()
	if err := sys.sync(); err != nil {
		return fmt.Errorf("sync: %w", err)
	}
	end := nowNS()
	goruntime.ReadMemStats(&ms)
	alloc := ms.TotalAlloc - alloc0
	fullGC()
	goruntime.ReadMemStats(&ms)
	heap := int64(ms.HeapAlloc) - int64(heapBase)

	st.attempted += int64(in.ops)
	for i := range ds {
		st.failed += ds[i].failed
		if ds[i].err != nil {
			return ds[i].err
		}
	}
	state, err := check(sys, in)
	if err != nil {
		return err
	}
	st.state = state
	perBatch := sys.envelopesPerBatch()
	sys.close()
	closed = true

	st.setup = append(st.setup, time.Duration(setup).Seconds())
	st.thr = append(st.thr, float64(in.ops)/time.Duration(end-begin).Seconds())
	st.allocPerOp = append(st.allocPerOp, float64(alloc)/float64(in.ops))
	st.heapMB = append(st.heapMB, float64(heap)/(1<<20))
	st.syncS = append(st.syncS, time.Duration(end-syncStart).Seconds())
	var write, read, vis []int64
	for i := range ds {
		write = append(write, ds[i].write...)
		read = append(read, ds[i].read...)
		vis = append(vis, ds[i].vis...)
	}
	st.write = append(st.write, write)
	st.read = append(st.read, read)
	st.vis = append(st.vis, vis)
	if tr == nil {
		return nil
	}
	acc := st.layers
	acc.tsBuild = append(acc.tsBuild, time.Duration(tsBuild).Seconds())
	acc.entries = entriesPerReplica(proto, g)
	acc.perBatch = append(acc.perBatch, perBatch)
	return tr.analyze(g, acc)
}

// fullGC collects twice: objects parked in a sync.Pool survive the first
// collection in the pool's victim cache, and runtimes pool sinks that
// point back at the whole runtime.
func fullGC() {
	goruntime.GC()
	goruntime.GC()
}

// check is the correctness gate: every holder at the script's last
// pinned value per register, nothing left buffered, and a clean verdict
// from the runtime's oracle where it runs one. It returns the final
// state.
func check(sys system, in *inputs) (string, error) {
	if n, err := sys.pending(); err != nil {
		return "", err
	} else if n != 0 {
		return "", fmt.Errorf("%d updates still buffered after sync", n)
	}
	got, err := sys.state()
	if err != nil {
		return "", err
	}
	if got != in.expected {
		return "", fmt.Errorf("final state differs from the script's last pinned values")
	}
	return got, sys.audit()
}

func entriesPerReplica(p *core.EdgeIndexed, g *sharegraph.Graph) float64 {
	total := 0
	for i := 0; i < g.NumReplicas(); i++ {
		total += p.Space().Len(sharegraph.ReplicaID(i))
	}
	return float64(total) / float64(g.NumReplicas())
}

func (d *driver) run(id int, sys system, tr *tracer, inlineWrite bool) {
	for i := range d.q {
		o := &d.q[i]
		t0 := nowNS()
		if o.read {
			_, err := sys.read(id, o.space, o.rep, o.reg)
			t1 := nowNS()
			d.read = append(d.read, t1-t0)
			if tr != nil {
				d.buf.add(span{kind: spanRead, space: o.space, rep: int32(o.rep), peer: -1, reg: o.reg, start: t0, end: t1, parent: noSpan})
			}
			if err != nil {
				d.fail(err)
			}
			continue
		}
		var ref spanRef
		if tr != nil {
			ref = d.buf.add(span{kind: spanWrite, space: o.space, rep: int32(o.rep), peer: -1, reg: o.reg, val: o.val, start: t0, parent: noSpan})
			if inlineWrite {
				tr.setParent(o.space, o.rep, ref)
			}
		}
		err := sys.write(id, o)
		t1 := nowNS()
		d.write = append(d.write, t1-t0)
		if tr != nil {
			d.buf.at(ref).end = t1
		}
		if err != nil {
			d.fail(err)
			continue
		}
		if o.probe >= 0 {
			if err := d.probe(id, sys, o, t0); err != nil {
				d.fail(err)
			}
		}
	}
}

// probe reads o's remote holder until it returns o's value or a later
// one, and records the write-to-visible latency from the write's start.
func (d *driver) probe(id int, sys system, o *op, t0 int64) error {
	deadline := t0 + int64(probeTimeout)
	for {
		v, err := sys.read(id, o.space, o.probe, o.reg)
		if err != nil {
			return err
		}
		now := nowNS()
		if v >= o.val {
			d.vis = append(d.vis, now-t0)
			return nil
		}
		if now > deadline {
			return fmt.Errorf("%s=%d not visible at replica %d after %v", o.reg, o.val, o.probe, probeTimeout)
		}
		goruntime.Gosched()
	}
}

// fail counts a failed op; the first error is kept for the report.
func (d *driver) fail(err error) {
	d.failed++
	if d.err == nil {
		d.err = err
	}
}

func (st *runStats) endToEnd(out map[string]metric) error {
	rn := roundsNote(st.rounds)
	out["setup_s"] = metric{Value: median(st.setup), Unit: "s", note: rn}
	out["throughput_ops_s"] = metric{Value: median(st.thr), Unit: "ops/s", note: rn}
	out["alloc_bytes_per_op"] = metric{Value: median(st.allocPerOp), Unit: "B/op", note: rn}
	out["retained_heap_mb"] = metric{Value: median(st.heapMB), Unit: "MB", note: rn}
	out["ok_op_ratio"] = metric{Value: float64(st.attempted-st.failed) / float64(st.attempted), Unit: "ratio",
		note: fmt.Sprintf("failed_op_ratio=%d/%d", st.failed, st.attempted)}
	for _, dist := range []struct {
		name   string
		rounds [][]int64
	}{{"write", st.write}, {"read", st.read}, {"visible", st.vis}} {
		for _, q := range []struct {
			suffix string
			q      float64
		}{{"_p50_us", 0.50}, {"_p99_us", 0.99}} {
			v, err := blockPercentile(dist.rounds, q.q, 1e-3)
			if err != nil {
				return fmt.Errorf("%s%s: %w", dist.name, q.suffix, err)
			}
			out[dist.name+q.suffix] = metric{Value: v.Value, Unit: "us",
				note: fmt.Sprintf("median of %d blocks of whole rounds, each n>=%d beyond>=%d", v.Blocks, v.MinN, v.MinBeyond)}
		}
	}
	return nil
}

func (q quantile) note() string { return fmt.Sprintf("n=%d beyond=%d", q.N, q.Beyond) }

func roundsNote(n int) string { return fmt.Sprintf("median of %d rounds", n) }

// perLayer fills the traced pass's per-layer metrics; base is the
// untraced pass on the same seed, for the tracing overhead.
func (st *runStats) perLayer(out map[string]metric, base *runStats) error {
	a := st.layers
	rn := roundsNote(st.rounds)
	ratio := func(num, den int64) float64 { return float64(num) / float64(max(den, 1)) }
	out["sharegraph.tsgraph_build_s"] = metric{Value: median(a.tsBuild), Unit: "s", note: rn}
	out["sharegraph.entries_per_replica"] = metric{Value: a.entries, Unit: "count"}
	out["core.handle_message_busy_s"] = metric{Value: median(a.messageBusy), Unit: "s", note: rn + ", per round"}
	out["core.fanout_per_write"] = metric{Value: ratio(a.fanout, a.writes), Unit: "count", note: fmt.Sprintf("%d writes", a.writes)}
	out["core.apply_cascade"] = metric{Value: ratio(a.cascadeSize, a.cascadeCalls), Unit: "count", note: "updates applied per applying HandleMessage"}
	out["core.buffered_ratio"] = metric{Value: ratio(a.arrivals-a.onArrival, a.arrivals), Unit: "ratio", note: fmt.Sprintf("%d of %d arrivals", a.arrivals-a.onArrival, a.arrivals)}
	out["runtime.envelopes_per_batch"] = metric{Value: median(a.perBatch), Unit: "count", note: rn}
	out["runtime.sync_s"] = metric{Value: median(st.syncS), Unit: "s", note: rn}
	out["timestamp.meta_bytes_per_msg"] = metric{Value: ratio(a.metaBytes, a.metaMsgs), Unit: "B", note: fmt.Sprintf("%d messages", a.metaMsgs)}
	out["timestamp.decode_ns"] = metric{Value: median(a.decodeNs), Unit: "ns", note: rn}
	out["timestamp.encode_ns"] = metric{Value: median(a.encodeNs), Unit: "ns", note: rn}
	out["wire.encode_ns"] = metric{Value: median(a.wireEncodeNs), Unit: "ns", note: rn + ", per Update frame"}
	out["wire.decode_ns"] = metric{Value: median(a.wireDecodeNs), Unit: "ns", note: rn + ", per Update frame"}
	out["causality.issue_ns"] = metric{Value: median(a.issueNs), Unit: "ns", note: rn}
	out["causality.apply_ns"] = metric{Value: median(a.applyNs), Unit: "ns", note: rn}
	out["causality.busy_s"] = metric{Value: median(a.causalityBusy), Unit: "s", note: rn + ", per round"}
	out["bench.trace_overhead_ratio"] = metric{Value: median(base.thr) / median(st.thr), Unit: "ratio",
		note: fmt.Sprintf("untraced/traced throughput_ops_s, %d and %d rounds", base.rounds, st.rounds)}
	for _, p := range []struct {
		name    string
		samples []int64
		q       float64
		scale   float64
		unit    string
	}{
		{"core.handle_write_ns_p50", a.handleWrite, 0.5, 1, "ns"},
		{"core.handle_message_ns_p50", a.handleMessage, 0.5, 1, "ns"},
		{"core.gate_wait_us_p50", a.gateWait, 0.5, 1e-3, "us"},
		{"core.gate_wait_us_p99", a.gateWait, 0.99, 1e-3, "us"},
		{"core.apply_delay_us_p50", a.applyDelay, 0.5, 1e-3, "us"},
		{"core.apply_delay_us_p99", a.applyDelay, 0.99, 1e-3, "us"},
		{"runtime.transit_us_p50", a.transit, 0.5, 1e-3, "us"},
		{"runtime.transit_us_p99", a.transit, 0.99, 1e-3, "us"},
		{"runtime.write_self_ns_p50", a.writeSelf, 0.5, 1, "ns"},
		{"runtime.write_self_ns_p99", a.writeSelf, 0.99, 1, "ns"},
		{"runtime.read_ns_p50", a.read, 0.5, 1, "ns"},
		{"runtime.read_ns_p99", a.read, 0.99, 1, "ns"},
	} {
		v, err := percentile(p.samples, p.q, p.scale)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		out[p.name] = metric{Value: v.Value, Unit: p.unit, note: v.note()}
	}
	return nil
}
