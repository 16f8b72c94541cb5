package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sharegraph"
)

func TestPercentileSamplesBeyondRule(t *testing.T) {
	samples := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(n - i) // unsorted on purpose
		}
		return s
	}
	q, err := percentile(samples(1000), 0.99, 1)
	if err != nil {
		t.Fatalf("p99 of 1000 samples: %v", err)
	}
	if q.Value != 990 || q.N != 1000 || q.Beyond != 10 {
		t.Fatalf("p99 of 1..1000 = %+v, want value 990, n 1000, beyond 10", q)
	}
	if _, err := percentile(samples(999), 0.99, 1); err == nil {
		t.Fatal("p99 of 999 samples leaves 9 beyond it and must be refused")
	}
	q, err = percentile(samples(20), 0.5, 1e-3)
	if err != nil || q.Value != 0.01 || q.N != 20 || q.Beyond != 10 {
		t.Fatalf("p50 of 20 samples = %+v, %v; want 0.01 with n 20, beyond 10", q, err)
	}
	if _, err := percentile(nil, 0.5, 1); err == nil {
		t.Fatal("percentile of no samples must fail")
	}
}

func TestBlockPercentileGroupsWholeRounds(t *testing.T) {
	round := func(n int, v int64) []int64 {
		r := make([]int64, n)
		for i := range r {
			r[i] = v
		}
		return r
	}
	// p99 needs 1000 samples: rounds one and two form the first block,
	// round three the second, and the short trailing round joins it.
	rounds := [][]int64{round(600, 1), round(600, 1), round(1000, 5), round(300, 5)}
	q, err := blockPercentile(rounds, 0.99, 1)
	if err != nil {
		t.Fatal(err)
	}
	if q.Blocks != 2 || q.MinN != 1200 || q.MinBeyond != 12 || q.Value != 3 {
		t.Fatalf("p99 blocks = %+v, want 2 blocks, smallest 1200 samples with 12 beyond, median 3", q)
	}
	// p50 needs 20 samples, so every round is a block of its own.
	if q, err = blockPercentile(rounds, 0.5, 1); err != nil || q.Blocks != 4 || q.Value != 3 {
		t.Fatalf("p50 blocks = %+v, %v; want 4 blocks with median 3", q, err)
	}
	if _, err := blockPercentile([][]int64{round(999, 1)}, 0.99, 1); err == nil {
		t.Fatal("a run with 999 samples must not report p99")
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {40, 70}}, 60},
		{"overlapping", []interval{{10, 30}, {15, 25}, {20, 40}}, 70},
		{"clipped to parent", []interval{{-5, 2}, {90, 120}}, 88},
		{"outside parent", []interval{{-50, -1}, {200, 300}}, 100},
		{"covering parent", []interval{{-1, 101}}, 0},
	} {
		if got := selfTime(interval{0, 100}, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

// corruptDrop feeds a node an envelope whose metadata cannot decode: the
// edge-indexed node reports one drop through its diagnostics sink.
func corruptDrop(t *testing.T, p core.Protocol) {
	t.Helper()
	nodes, err := p.NewNodes()
	if err != nil {
		t.Fatal(err)
	}
	nodes[1].HandleMessage(core.Envelope{From: 0, To: 1, Reg: "ring0", Val: 1, Meta: []byte{0xff}}, core.DiscardSink{})
}

func TestBenchProtocolForwardsDiag(t *testing.T) {
	g := sharegraph.Ring(4)
	for _, traced := range []bool{false, true} {
		inner, err := core.NewEdgeIndexed(g)
		if err != nil {
			t.Fatal(err)
		}
		var tr *tracer
		if traced {
			tr = newTracer(1, g.NumReplicas())
		}
		var p core.Protocol = &benchProtocol{inner: inner, tr: tr}
		ds, ok := p.(core.DiagSettable)
		if !ok {
			t.Fatal("benchProtocol does not implement core.DiagSettable")
		}
		drops := 0
		ds.SetDiag(core.NewDiag(func(string, ...any) {}, func(int) { drops++ }))
		corruptDrop(t, p)
		if drops != 1 {
			t.Errorf("traced=%v: inner protocol saw %d drops through the forwarded sink, want 1", traced, drops)
		}
	}
}

// stubSystem is a runtime that ends in a fixed state.
type stubSystem struct {
	system
	st       string
	buffered int
}

func (s stubSystem) state() (string, error) { return s.st, nil }
func (s stubSystem) pending() (int, error)  { return s.buffered, nil }
func (s stubSystem) audit() error           { return nil }

func TestCheckRejectsWrongStateAndLeftovers(t *testing.T) {
	g := sharegraph.Ring(4)
	in, err := ownerWritesInputs(g, 200, 0.1, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := check(stubSystem{st: in.expected}, in); err != nil {
		t.Fatalf("expected state rejected: %v", err)
	}
	wrong := strings.Replace(in.expected, "=", "=9", 1)
	if _, err := check(stubSystem{st: wrong}, in); err == nil {
		t.Error("a wrong final state passed the gate")
	}
	if _, err := check(stubSystem{st: in.expected, buffered: 1}, in); err == nil {
		t.Error("a buffered update after sync passed the gate")
	}
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// sameMetrics fails unless got holds exactly the declared metrics, with
// the declared units.
func sameMetrics(t *testing.T, kind string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		if m, ok := got[name]; !ok {
			t.Errorf("%s metric %s not printed", kind, name)
		} else if m.Unit != unit {
			t.Errorf("%s metric %s in %s, declared in %s", kind, name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s metric %s printed but not declared", kind, name)
		}
	}
}

// TestTracedRunMatchesUntraced runs every workload untraced and traced
// on the same seed for the minimum number of rounds: both must pass the
// correctness gate and end in byte-equal states, and each mode must
// print exactly the metrics BENCHMARK.json declares.
func TestTracedRunMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	endToEnd, perLayer := declared(t)
	for _, w := range specs {
		t.Run(w.name, func(t *testing.T) {
			in, err := w.gen(w.graph(), 3)
			if err != nil {
				t.Fatal(err)
			}
			base, err := measure(w, in, 3, 0, false)
			if err != nil {
				t.Fatalf("untraced: %v", err)
			}
			traced, err := measure(w, in, 3, 0, true)
			if err != nil {
				t.Fatalf("traced: %v", err)
			}
			if base.state != traced.state || base.state != in.expected {
				t.Fatal("traced and untraced runs ended in different states")
			}
			e2e, layers := map[string]metric{}, map[string]metric{}
			if err := base.endToEnd(e2e); err != nil {
				t.Fatal(err)
			}
			if err := traced.perLayer(layers, base); err != nil {
				t.Fatal(err)
			}
			sameMetrics(t, "end-to-end", e2e, endToEnd)
			sameMetrics(t, "per-layer", layers, perLayer)
			for name, m := range e2e {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want a positive measurement", name, m.Value)
				}
			}
		})
	}
}
