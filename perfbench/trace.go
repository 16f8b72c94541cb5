package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/causality"
	"repro/internal/core"
	"repro/internal/sharegraph"
)

// epoch is the benchmark's clock origin: every timestamp, traced or not,
// is nanoseconds since process start on the monotonic clock.
var epoch = time.Now()

func nowNS() int64 { return int64(time.Since(epoch)) }

type spanKind uint8

const (
	spanWrite         spanKind = iota // driver: the runtime's Write call
	spanRead                          // driver: the runtime's Read call
	spanHandleWrite                   // core.Node.HandleWrite
	spanHandleMessage                 // core.Node.HandleMessage
	spanEmit                          // core.Sink.Emit
)

// spanRef names a span as buffer<<32 | index; noSpan is "no parent".
type spanRef int64

const noSpan spanRef = -1

// span is one timed call at a layer boundary. Spans of one update share
// its key (space, register, value): values are unique per register in
// every workload, and the key survives the wire codec, which does not
// carry OracleID. oracle is the ID the runtime passed or Applied
// returned, zero where the runtime does not carry it.
type span struct {
	kind       spanKind
	space      int32
	rep        int32 // replica the call ran at
	peer       int32 // Emit: destination; HandleMessage: sender
	n          int32 // HandleWrite: envelopes emitted (-1 on error); HandleMessage: updates applied
	reg        sharegraph.Register
	val        core.Value
	oracle     causality.UpdateID
	start, end int64
	parent     spanRef
	seq        uint64 // HandleWrite: issue position in the global event order
}

// applyEvent is one update a HandleMessage call returned as applied.
type applyEvent struct {
	space  int32
	rep    int32
	reg    sharegraph.Register
	val    core.Value
	oracle causality.UpdateID
	at     int64   // end of the call that applied it
	seq    uint64  // position in the global event order
	call   spanRef // the HandleMessage span
}

// sampleEvery keeps one emitted envelope in this many for the timestamp
// and wire codec replays.
const sampleEvery = 8

// spanBuf is one writer's span storage. A node's buffer is written only
// under the runtime's lock for that node, a driver's only by its
// goroutine, so appends need no synchronization of their own; the
// buffers are read after the runtime is closed.
type spanBuf struct {
	id        int64
	spans     []span
	applies   []applyEvent
	sampled   []core.Envelope // Meta copied
	emits     int64
	metaBytes int64
}

func (b *spanBuf) add(s span) spanRef {
	b.spans = append(b.spans, s)
	return spanRef(b.id<<32 | int64(len(b.spans)-1))
}

func (b *spanBuf) at(r spanRef) *span { return &b.spans[int64(r)&(1<<32-1)] }

// tracer keeps one round's spans in memory until the round's runtime is
// closed; analyze then reduces them to per-layer figures.
type tracer struct {
	seq      atomic.Uint64 // global issue/apply order for the causality replay
	replicas int

	// parents[space*replicas+rep] is the driver span currently calling
	// into the runtime at that replica, for runtimes whose Write runs
	// HandleWrite on the caller's goroutine.
	parents []atomic.Int64

	mu   sync.Mutex
	bufs []*spanBuf
}

func newTracer(spaces, replicas int) *tracer {
	t := &tracer{replicas: replicas, parents: make([]atomic.Int64, spaces*replicas)}
	for i := range t.parents {
		t.parents[i].Store(int64(noSpan))
	}
	return t
}

func (t *tracer) newBuf() *spanBuf {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &spanBuf{id: int64(len(t.bufs))}
	t.bufs = append(t.bufs, b)
	return b
}

func (t *tracer) setParent(space int32, rep sharegraph.ReplicaID, r spanRef) {
	t.parents[int(space)*t.replicas+int(rep)].Store(int64(r))
}

func (t *tracer) parentOf(space int32, rep sharegraph.ReplicaID) spanRef {
	return spanRef(t.parents[int(space)*t.replicas+int(rep)].Load())
}

// benchProtocol is a pass-through core.Protocol. Untraced it hands the
// runtime the inner nodes unchanged and only remembers them (the sharded
// runtime exposes no pending count of its own); traced it wraps each node
// in a tracedNode. Either way it forwards core.DiagSettable, so the
// runtime arms the inner protocol's drop diagnostics exactly as it would
// without the wrapper.
type benchProtocol struct {
	inner core.Protocol
	tr    *tracer       // nil: untraced
	nodes [][]core.Node // per NewNodes call, which is the space index
}

var _ core.DiagSettable = (*benchProtocol)(nil)

func (p *benchProtocol) Name() string { return p.inner.Name() }

// SetDiag implements core.DiagSettable by forwarding to the inner protocol.
func (p *benchProtocol) SetDiag(d *core.Diag) {
	if ds, ok := p.inner.(core.DiagSettable); ok {
		ds.SetDiag(d)
	}
}

// NewNodes implements core.Protocol. Runtimes hosting several spaces call
// it once per space in space order.
func (p *benchProtocol) NewNodes() ([]core.Node, error) {
	nodes, err := p.inner.NewNodes()
	if err != nil {
		return nil, err
	}
	space := int32(len(p.nodes))
	if p.tr != nil {
		for i, n := range nodes {
			tn := &tracedNode{Node: n, t: p.tr, buf: p.tr.newBuf(), space: space}
			tn.sink.n = tn
			nodes[i] = tn
		}
	}
	p.nodes = append(p.nodes, nodes)
	return nodes, nil
}

// tracedNode times HandleWrite, HandleMessage and every Emit, and records
// the updates Applied returns. All other methods pass through.
type tracedNode struct {
	core.Node
	t     *tracer
	buf   *spanBuf
	space int32
	sink  tracedSink
}

func (n *tracedNode) HandleWrite(x sharegraph.Register, v core.Value, id causality.UpdateID, out core.Sink) error {
	rep := n.ID()
	ref := n.buf.add(span{
		kind: spanHandleWrite, space: n.space, rep: int32(rep), peer: -1,
		reg: x, val: v, oracle: id, start: nowNS(),
		parent: n.t.parentOf(n.space, rep), seq: n.t.seq.Add(1),
	})
	n.sink.out, n.sink.parent, n.sink.emitted = out, ref, 0
	err := n.Node.HandleWrite(x, v, id, &n.sink)
	s := n.buf.at(ref)
	s.end = nowNS()
	s.n = n.sink.emitted
	if err != nil {
		s.n = -1
	}
	return err
}

func (n *tracedNode) HandleMessage(env core.Envelope, out core.Sink) []core.Applied {
	ref := n.buf.add(span{
		kind: spanHandleMessage, space: n.space, rep: int32(n.ID()), peer: int32(env.From),
		reg: env.Reg, val: env.Val, oracle: env.OracleID, start: nowNS(), parent: noSpan,
	})
	n.sink.out, n.sink.parent = out, ref
	applied := n.Node.HandleMessage(env, &n.sink)
	end := nowNS()
	s := n.buf.at(ref)
	s.end = end
	s.n = int32(len(applied))
	for _, a := range applied {
		n.buf.applies = append(n.buf.applies, applyEvent{
			space: n.space, rep: s.rep, reg: a.Reg, val: a.Val, oracle: a.OracleID,
			at: end, seq: n.t.seq.Add(1), call: ref,
		})
	}
	return applied
}

// tracedSink times the runtime's Emit and samples the envelopes.
type tracedSink struct {
	n       *tracedNode
	out     core.Sink
	parent  spanRef
	emitted int32
}

func (s *tracedSink) Emit(env core.Envelope) {
	b := s.n.buf
	start := nowNS()
	s.out.Emit(env)
	b.add(span{
		kind: spanEmit, space: s.n.space, rep: int32(env.From), peer: int32(env.To),
		reg: env.Reg, val: env.Val, oracle: env.OracleID, start: start, end: nowNS(), parent: s.parent,
	})
	s.emitted++
	b.emits++
	b.metaBytes += int64(len(env.Meta))
	if b.emits%sampleEvery == 0 {
		env.Meta = append([]byte(nil), env.Meta...)
		b.sampled = append(b.sampled, env)
	}
}
