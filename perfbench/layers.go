package main

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/causality"
	"repro/internal/core"
	"repro/internal/sharegraph"
	"repro/internal/timestamp"
	"repro/internal/wire"
)

// updKey identifies one update in every runtime (see span).
type updKey struct {
	space int32
	reg   sharegraph.Register
	val   core.Value
}

// hopKey is one update's message to one replica.
type hopKey struct {
	upd updKey
	to  int32
}

// layerAcc accumulates the traced run's per-layer figures over rounds:
// distributions are pooled, per-round totals keep one value per round.
type layerAcc struct {
	tsBuild []float64 // s per round
	entries float64   // mean timestamp entries per replica

	handleWrite, handleMessage []int64   // ns per call
	messageBusy                []float64 // s per round
	writes, fanout             int64     // HandleWrite calls, envelopes they emitted
	cascadeCalls, cascadeSize  int64     // HandleMessage calls that applied, updates they applied
	arrivals, onArrival        int64     // HandleMessage calls, those that applied their own update

	gateWait, applyDelay, transit []int64 // ns
	writeSelf, read               []int64 // ns

	perBatch []float64 // envelopes per engine or transport message, per round
	syncS    []float64 // s per round

	metaBytes, metaMsgs int64
	decodeNs, encodeNs  []float64 // per round
	wireEncodeNs        []float64 // per round
	wireDecodeNs        []float64 // per round

	issueNs, applyNs, causalityBusy []float64 // per round
}

// analyze reduces one closed round's spans into acc and replays the
// round's issue/apply sequence through a fresh causality oracle per
// space. It fails if the replay finds a violation or a span cannot be
// matched to its update.
func (t *tracer) analyze(g *sharegraph.Graph, acc *layerAcc) error {
	writeStart := make(map[updKey]int64)
	writeID := make(map[updKey]causality.UpdateID)
	emitAt := make(map[hopKey]int64)
	arrival := make(map[hopKey]int64)
	children := make(map[spanRef][]interval)
	var busy int64
	var sampled []core.Envelope
	for _, b := range t.bufs {
		acc.metaBytes += b.metaBytes
		acc.metaMsgs += b.emits
		sampled = append(sampled, b.sampled...)
		for i := range b.spans {
			s := &b.spans[i]
			k := updKey{s.space, s.reg, s.val}
			switch s.kind {
			case spanHandleWrite:
				acc.handleWrite = append(acc.handleWrite, s.end-s.start)
				writeStart[k] = s.start
				writeID[k] = s.oracle
				if s.n >= 0 {
					acc.writes++
					acc.fanout += int64(s.n)
				}
				if s.parent != noSpan {
					children[s.parent] = append(children[s.parent], interval{s.start, s.end})
				}
			case spanHandleMessage:
				acc.handleMessage = append(acc.handleMessage, s.end-s.start)
				busy += s.end - s.start
				arrival[hopKey{k, s.rep}] = s.start
				acc.arrivals++
				if s.n > 0 {
					acc.cascadeCalls++
					acc.cascadeSize += int64(s.n)
				}
			case spanEmit:
				emitAt[hopKey{k, s.peer}] = s.start
			}
		}
	}
	acc.messageBusy = append(acc.messageBusy, time.Duration(busy).Seconds())
	for _, b := range t.bufs {
		for i := range b.spans {
			s := &b.spans[i]
			switch s.kind {
			case spanHandleMessage:
				sent, ok := emitAt[hopKey{updKey{s.space, s.reg, s.val}, s.rep}]
				if !ok {
					return fmt.Errorf("trace: arrival of %s=%d at %d has no emit", s.reg, s.val, s.rep)
				}
				acc.transit = append(acc.transit, s.start-sent)
			case spanWrite:
				ref := spanRef(b.id<<32 | int64(i))
				acc.writeSelf = append(acc.writeSelf, selfTime(interval{s.start, s.end}, children[ref]))
			case spanRead:
				acc.read = append(acc.read, s.end-s.start)
			}
		}
		for _, a := range b.applies {
			k := updKey{a.space, a.reg, a.val}
			arr, ok := arrival[hopKey{k, a.rep}]
			if !ok {
				return fmt.Errorf("trace: apply of %s=%d at %d has no arrival", a.reg, a.val, a.rep)
			}
			ws, ok := writeStart[k]
			if !ok {
				return fmt.Errorf("trace: apply of %s=%d at %d has no write", a.reg, a.val, a.rep)
			}
			// The wire codec does not carry OracleID, so receivers on TCP
			// see zero; elsewhere every span of an update shares its ID.
			if a.oracle != 0 && a.oracle != writeID[k] {
				return fmt.Errorf("trace: apply of %s=%d at %d has oracle ID %d, its write %d", a.reg, a.val, a.rep, a.oracle, writeID[k])
			}
			acc.gateWait = append(acc.gateWait, a.at-arr)
			acc.applyDelay = append(acc.applyDelay, a.at-ws)
			if c := b.at(a.call); c.reg == a.reg && c.val == a.val {
				acc.onArrival++
			}
		}
	}
	if len(sampled) == 0 {
		return fmt.Errorf("trace: no envelopes captured")
	}
	dec, enc, err := replayTimestamps(sampled)
	if err != nil {
		return err
	}
	acc.decodeNs = append(acc.decodeNs, dec)
	acc.encodeNs = append(acc.encodeNs, enc)
	if enc, dec, err = replayWire(g, sampled); err != nil {
		return err
	}
	acc.wireEncodeNs = append(acc.wireEncodeNs, enc)
	acc.wireDecodeNs = append(acc.wireDecodeNs, dec)
	return t.replayCausality(g, acc)
}

// codecMinTime is how long each codec replay direction runs per round.
const codecMinTime = 5 * time.Millisecond

// replayTimestamps decodes every captured Meta with timestamp.DecodeInto
// and re-encodes it with EncodeTo, repeating the pass until each codec
// direction has run for at least codecMinTime, and returns ns per call.
func replayTimestamps(envs []core.Envelope) (decodeNs, encodeNs float64, err error) {
	metas := make([][]byte, len(envs))
	for i := range envs {
		metas[i] = envs[i].Meta
	}
	vecs := make([]timestamp.Vec, len(metas))
	for i, m := range metas {
		if vecs[i], err = timestamp.DecodeInto(nil, m); err != nil {
			return 0, 0, fmt.Errorf("trace: captured metadata: %w", err)
		}
	}
	var scratch timestamp.Vec
	calls, start := 0, time.Now()
	for time.Since(start) < codecMinTime {
		for _, m := range metas {
			scratch, err = timestamp.DecodeInto(scratch, m)
			if err != nil {
				return 0, 0, err
			}
		}
		calls += len(metas)
	}
	decodeNs = float64(time.Since(start).Nanoseconds()) / float64(calls)
	var buf []byte
	calls, start = 0, time.Now()
	for time.Since(start) < codecMinTime {
		for i, v := range vecs {
			buf = timestamp.EncodeTo(buf[:0], v)
			if string(buf) != string(metas[i]) {
				return 0, 0, fmt.Errorf("trace: metadata re-encodes differently")
			}
		}
		calls += len(vecs)
	}
	encodeNs = float64(time.Since(start).Nanoseconds()) / float64(calls)
	return decodeNs, encodeNs, nil
}

// replayWire encodes every captured envelope as the Update frame the TCP
// transport sends (wire.AppendUpdate) and decodes the frames as a
// receiving wire.Node does (DecodeBody, DecodeUpdate with interned
// register names), each direction for at least codecMinTime, and returns
// ns per frame. Every frame must decode back to its envelope.
func replayWire(g *sharegraph.Graph, envs []core.Envelope) (encodeNs, decodeNs float64, err error) {
	intern := make(map[string]sharegraph.Register)
	for _, r := range g.Registers() {
		intern[string(r)] = r
	}
	frames := make([][]byte, len(envs))
	for i, env := range envs {
		frames[i] = wire.AppendUpdate(nil, env)
		got, err := decodeUpdateFrame(frames[i], intern)
		if err != nil {
			return 0, 0, fmt.Errorf("trace: wire replay: %w", err)
		}
		if got.From != env.From || got.To != env.To || got.Reg != env.Reg || got.Val != env.Val ||
			got.MetaOnly != env.MetaOnly || string(got.Meta) != string(env.Meta) {
			return 0, 0, fmt.Errorf("trace: wire replay: %s=%d decodes differently", env.Reg, env.Val)
		}
	}
	var buf []byte
	calls, start := 0, time.Now()
	for time.Since(start) < codecMinTime {
		for i := range envs {
			buf = wire.AppendUpdate(buf[:0], envs[i])
		}
		calls += len(envs)
	}
	encodeNs = float64(time.Since(start).Nanoseconds()) / float64(calls)
	calls, start = 0, time.Now()
	for time.Since(start) < codecMinTime {
		for _, f := range frames {
			if _, err := decodeUpdateFrame(f, intern); err != nil {
				return 0, 0, err
			}
		}
		calls += len(frames)
	}
	decodeNs = float64(time.Since(start).Nanoseconds()) / float64(calls)
	return encodeNs, decodeNs, nil
}

// decodeUpdateFrame decodes one length-prefixed Update frame.
func decodeUpdateFrame(frame []byte, intern map[string]sharegraph.Register) (core.Envelope, error) {
	kind, payload, err := wire.DecodeBody(frame[4:])
	if err != nil {
		return core.Envelope{}, err
	}
	if kind != wire.KindUpdate {
		return core.Envelope{}, fmt.Errorf("wire replay: %v frame", kind)
	}
	return wire.DecodeUpdate(payload, intern)
}

// replayCausality feeds the round's issues (HandleWrite spans) and
// applies, in their global order, through causality.NewTracker's
// OnIssue/OnApply, one oracle per space, and requires a clean verdict
// including liveness.
func (t *tracer) replayCausality(g *sharegraph.Graph, acc *layerAcc) error {
	type event struct {
		seq   uint64
		space int32
		rep   int32
		reg   sharegraph.Register
		val   core.Value
		issue bool
	}
	var events []event
	for _, b := range t.bufs {
		for i := range b.spans {
			if s := &b.spans[i]; s.kind == spanHandleWrite && s.n >= 0 {
				events = append(events, event{s.seq, s.space, s.rep, s.reg, s.val, true})
			}
		}
		for _, a := range b.applies {
			events = append(events, event{a.seq, a.space, a.rep, a.reg, a.val, false})
		}
	}
	slices.SortFunc(events, func(a, b event) int { return cmp.Compare(a.seq, b.seq) })
	trackers := make(map[int32]*causality.Tracker)
	ids := make(map[updKey]causality.UpdateID)
	var issueT, applyT time.Duration
	var issues, applies int
	for _, e := range events {
		tr := trackers[e.space]
		if tr == nil {
			tr = causality.NewTracker(g)
			trackers[e.space] = tr
		}
		k := updKey{e.space, e.reg, e.val}
		if e.issue {
			start := time.Now()
			ids[k] = tr.OnIssue(sharegraph.ReplicaID(e.rep), e.reg)
			issueT += time.Since(start)
			issues++
			continue
		}
		id, ok := ids[k]
		if !ok {
			return fmt.Errorf("causality replay: apply of %s=%d at %d before its issue", e.reg, e.val, e.rep)
		}
		start := time.Now()
		tr.OnApply(sharegraph.ReplicaID(e.rep), id)
		applyT += time.Since(start)
		applies++
	}
	for space, tr := range trackers {
		tr.CheckLiveness()
		if v := tr.Violations(); len(v) > 0 {
			return fmt.Errorf("causality replay: space %d: %d violations, first %v", space, len(v), v[0])
		}
	}
	if issues == 0 || applies == 0 {
		return fmt.Errorf("causality replay: %d issues, %d applies", issues, applies)
	}
	acc.issueNs = append(acc.issueNs, float64(issueT.Nanoseconds())/float64(issues))
	acc.applyNs = append(acc.applyNs, float64(applyT.Nanoseconds())/float64(applies))
	acc.causalityBusy = append(acc.causalityBusy, (issueT + applyT).Seconds())
	return nil
}
