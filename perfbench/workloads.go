package main

import (
	"cmp"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/sharegraph"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/workload"
)

// drivers is the closed loop's client count: one per CPU of the 2-CPU
// capture host, sharing the CPUs with the runtime's own workers.
const drivers = 2

// op is one scripted client operation. val is the value a write pins
// (values grow per register in script order, so "this value or a later
// one" is a >= test); probe is the remote holder a visibility probe reads
// after the write, or -1.
type op struct {
	space int32
	rep   sharegraph.ReplicaID
	reg   sharegraph.Register
	val   core.Value
	read  bool
	probe sharegraph.ReplicaID
}

// inputs are one workload's generated operations, split into the
// drivers' queues, plus the final state a correct runtime must reach.
type inputs struct {
	g        *sharegraph.Graph
	spaces   int
	queues   [drivers][]op
	ops      int
	expected string
}

// spec describes one workload: how to build its inputs from a seed and
// how to stand up the runtime under test.
type spec struct {
	name  string
	graph func() *sharegraph.Graph
	gen   func(g *sharegraph.Graph, seed int64) (*inputs, error)
	// setup builds the runtime over g and an already built protocol.
	setup func(g *sharegraph.Graph, in *inputs, proto *core.EdgeIndexed, tr *tracer, seed int64) (system, error)
	// inlineWrite: the runtime's Write runs HandleWrite on the caller's
	// goroutine, so the driver's Write span parents it.
	inlineWrite bool
}

// system is the runtime under test as the drivers and checks see it.
type system interface {
	// write and read are called by driver d.
	write(d int, o *op) error
	read(d int, space int32, rep sharegraph.ReplicaID, reg sharegraph.Register) (core.Value, error)
	// sync returns once every issued update is applied at every holder.
	sync() error
	// state renders every holder's registers with wire.FormatSnapshots.
	state() (string, error)
	pending() (int, error)
	// audit returns the runtime's own oracle verdict, where it has one.
	audit() error
	// envelopesPerBatch is envelopes per engine or transport message.
	envelopesPerBatch() float64
	close()
}

const (
	ring64Writes     = 40000
	ring64ReadShare  = 0.05
	ring64ProbeEvery = 2

	shardSpaces     = 4096
	shardWrites     = 60000
	shardZipf       = 1.2
	shardProbeEvery = 32

	tcpWrites     = 12000
	tcpReadShare  = 0.05
	tcpProbeEvery = 1
)

var specs = []spec{
	{
		name:  "ring64-audited",
		graph: func() *sharegraph.Graph { return sharegraph.Ring(64) },
		gen: func(g *sharegraph.Graph, seed int64) (*inputs, error) {
			return ownerWritesInputs(g, ring64Writes, ring64ReadShare, ring64ProbeEvery, seed)
		},
		setup:       setupCluster,
		inlineWrite: true,
	},
	{
		name:  "sharded-zipf-rw",
		graph: func() *sharegraph.Graph { return sharegraph.Ring(8) },
		gen: func(g *sharegraph.Graph, seed int64) (*inputs, error) {
			return shardedInputs(g, shardSpaces, shardWrites, shardProbeEvery, seed)
		},
		setup:       setupSharded,
		inlineWrite: true,
	},
	{
		name:  "tcp-ring8",
		graph: func() *sharegraph.Graph { return sharegraph.Ring(8) },
		gen: func(g *sharegraph.Graph, seed int64) (*inputs, error) {
			return ownerWritesInputs(g, tcpWrites, tcpReadShare, tcpProbeEvery, seed)
		},
		setup: setupTCP,
	},
}

func specNamed(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// ownerWritesInputs is workload.OwnerWrites (one writer per register,
// pinned increasing values) with a readShare of local reads at the
// writing replica.
func ownerWritesInputs(g *sharegraph.Graph, writes int, readShare float64, probeEvery int, seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var ops []op
	for _, w := range workload.OwnerWrites(g, writes, seed) {
		ops = append(ops, op{rep: w.Replica, reg: w.Reg, val: core.Value(w.Val)})
		if rng.Float64() < readShare {
			regs := g.Stores(w.Replica).Sorted()
			ops = append(ops, op{rep: w.Replica, reg: regs[rng.Intn(len(regs))], read: true})
		}
	}
	return split(g, 1, ops, probeEvery, rng), nil
}

// shardedInputs is workload.GenerateMulti's zipf multi-tenant write
// script with one read after every write, of a random register of the
// same space at a random holder.
func shardedInputs(g *sharegraph.Graph, spaces, writes, probeEvery int, seed int64) (*inputs, error) {
	ms, err := workload.GenerateMulti(g, workload.MultiOptions{Spaces: spaces, Ops: writes, Zipf: shardZipf, Seed: seed})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	regs := g.Registers()
	var ops []op
	for _, mo := range ms.Ops {
		ops = append(ops, op{space: int32(mo.Space), rep: mo.Op.Replica, reg: mo.Op.Reg, val: core.Value(mo.Op.Val)})
		reg := regs[rng.Intn(len(regs))]
		holders := g.Holders(reg)
		ops = append(ops, op{space: int32(mo.Space), rep: holders[rng.Intn(len(holders))], reg: reg, read: true})
	}
	return split(g, spaces, ops, probeEvery, rng), nil
}

// split deals the script to the drivers by (space, replica), keeping
// each replica's program order, and marks every probeEvery-th write of
// each driver that has a remote holder as a visibility probe of a
// seeded-random remote holder. Each
// (space, replica) goes whole to the less loaded driver, heaviest first:
// with few registers a seed's ownership draw can give one replica three
// times another's ops, and a driver left running alone changes every
// latency, so a fixed split would make the figures depend on the draw.
func split(g *sharegraph.Graph, spaces int, ops []op, probeEvery int, rng *rand.Rand) *inputs {
	replicas := g.NumReplicas()
	key := func(o *op) int { return int(o.space)*replicas + int(o.rep) }
	count := make([]int, spaces*replicas)
	for i := range ops {
		count[key(&ops[i])]++
	}
	order := make([]int, len(count))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(count[b], count[a]) })
	driverOf := make([]int, len(count))
	var load [drivers]int
	for _, k := range order {
		d := 0
		for i := range load {
			if load[i] < load[d] {
				d = i
			}
		}
		driverOf[k] = d
		load[d] += count[k]
	}
	in := &inputs{g: g, spaces: spaces}
	var writes [drivers]int
	for _, o := range ops {
		d := driverOf[key(&o)]
		o.probe = -1
		var remote []sharegraph.ReplicaID
		if !o.read {
			for _, h := range g.Holders(o.reg) {
				if h != o.rep {
					remote = append(remote, h)
				}
			}
		}
		if len(remote) > 0 {
			if writes[d]++; writes[d]%probeEvery == 0 {
				o.probe = remote[rng.Intn(len(remote))]
			}
		}
		in.queues[d] = append(in.queues[d], o)
	}
	return in.finish()
}

// finish counts the ops and renders the expected final state: every
// holder of a register ends at the register's last scripted value (0 if
// never written).
func (in *inputs) finish() *inputs {
	last := make(map[updKey]core.Value) // val unused in the key
	for d := range in.queues {
		in.ops += len(in.queues[d])
		for _, o := range in.queues[d] {
			if !o.read {
				k := updKey{space: o.space, reg: o.reg}
				last[k] = max(last[k], o.val)
			}
		}
	}
	states := make([][]map[sharegraph.Register]core.Value, in.spaces)
	for s := range states {
		states[s] = make([]map[sharegraph.Register]core.Value, in.g.NumReplicas())
		for r := range states[s] {
			m := make(map[sharegraph.Register]core.Value)
			for _, x := range in.g.Stores(sharegraph.ReplicaID(r)).Sorted() {
				m[x] = last[updKey{space: int32(s), reg: x}]
			}
			states[s][r] = m
		}
	}
	in.expected = formatSpaces(states)
	return in
}

// formatSpaces renders every space's states with wire.FormatSnapshots.
func formatSpaces(states [][]map[sharegraph.Register]core.Value) string {
	var b strings.Builder
	for s, st := range states {
		fmt.Fprintf(&b, "space %d\n", s)
		b.WriteString(wire.FormatSnapshots(st))
	}
	return b.String()
}

// clusterSystem is sim.Cluster with its causality oracle armed.
type clusterSystem struct{ c *sim.Cluster }

func setupCluster(g *sharegraph.Graph, _ *inputs, proto *core.EdgeIndexed, tr *tracer, seed int64) (system, error) {
	c, err := sim.NewCluster(g, &benchProtocol{inner: proto, tr: tr}, sim.WithSeed(seed))
	if err != nil {
		return nil, err
	}
	return clusterSystem{c}, nil
}

func (s clusterSystem) write(_ int, o *op) error { return s.c.Write(o.rep, o.reg, o.val) }

func (s clusterSystem) read(_ int, _ int32, rep sharegraph.ReplicaID, reg sharegraph.Register) (core.Value, error) {
	v, ok := s.c.Read(rep, reg)
	if !ok {
		return 0, fmt.Errorf("cluster: replica %d cannot read %s", rep, reg)
	}
	return v, nil
}

func (s clusterSystem) sync() error { s.c.Quiesce(); return nil }

func (s clusterSystem) state() (string, error) {
	return formatSpaces([][]map[sharegraph.Register]core.Value{s.c.StateSnapshot()}), nil
}

func (s clusterSystem) pending() (int, error) { return s.c.PendingTotal(), nil }

func (s clusterSystem) audit() error {
	tr := s.c.Tracker()
	tr.CheckLiveness()
	if v := tr.Violations(); len(v) > 0 {
		return fmt.Errorf("oracle: %d violations, first %v", len(v), v[0])
	}
	return nil
}

// envelopesPerBatch: the cluster's engine carries one envelope per message.
func (s clusterSystem) envelopesPerBatch() float64 { return 1 }

func (s clusterSystem) close() { s.c.Close() }

// shardedSystem is shard.Runtime without audit.
type shardedSystem struct {
	r     *shard.Runtime
	proto *benchProtocol
}

func setupSharded(g *sharegraph.Graph, in *inputs, proto *core.EdgeIndexed, tr *tracer, seed int64) (system, error) {
	bp := &benchProtocol{inner: proto, tr: tr}
	r, err := shard.New(g, bp, shard.Options{Spaces: in.spaces, Seed: seed})
	if err != nil {
		return nil, err
	}
	return shardedSystem{r, bp}, nil
}

func (s shardedSystem) write(_ int, o *op) error { return s.r.Write(int(o.space), o.rep, o.reg, o.val) }

func (s shardedSystem) read(_ int, space int32, rep sharegraph.ReplicaID, reg sharegraph.Register) (core.Value, error) {
	v, ok := s.r.Read(int(space), rep, reg)
	if !ok {
		return 0, fmt.Errorf("shard: space %d replica %d cannot read %s", space, rep, reg)
	}
	return v, nil
}

func (s shardedSystem) sync() error { s.r.Quiesce(); return nil }

func (s shardedSystem) state() (string, error) {
	states := make([][]map[sharegraph.Register]core.Value, s.r.Spaces())
	for sp := range states {
		states[sp] = s.r.StateSnapshot(sp)
	}
	return formatSpaces(states), nil
}

// pending sums the nodes' buffers; called after Quiesce, when no worker
// touches a node.
func (s shardedSystem) pending() (int, error) {
	n := 0
	for _, nodes := range s.proto.nodes {
		for _, nd := range nodes {
			n += nd.PendingCount()
		}
	}
	return n, nil
}

func (s shardedSystem) audit() error { return nil }

func (s shardedSystem) envelopesPerBatch() float64 { return s.r.Stats().AvgBatch() }

func (s shardedSystem) close() { s.r.Close() }

// tcpSystem is one wire.Node per replica on loopback TCP in this
// process. Each driver has its own wire.Client, as separate client
// processes would: a Client's replica connection is not safe for a Write
// racing a Snapshot from another goroutine (the Snapshot response is
// decoded from the connection's buffer after its lock is released, and a
// concurrent Write re-encodes into that buffer).
type tcpSystem struct {
	nodes  []*wire.Node
	served chan error
	cls    [drivers]*wire.Client
}

func setupTCP(g *sharegraph.Graph, _ *inputs, proto *core.EdgeIndexed, tr *tracer, _ int64) (system, error) {
	cfg, err := loopbackConfig(g)
	if err != nil {
		return nil, err
	}
	s := &tcpSystem{served: make(chan error, len(cfg.Replicas))}
	for i := range cfg.Replicas {
		n, err := wire.NewNode(cfg, i, &benchProtocol{inner: proto, tr: tr}, wire.NodeOptions{})
		if err != nil {
			s.close()
			return nil, err
		}
		s.nodes = append(s.nodes, n)
		go func() { s.served <- n.Serve() }()
	}
	for d := range s.cls {
		if s.cls[d], err = wire.Dial(cfg, 10*time.Second); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// loopbackConfig reserves one free loopback port per replica. The ports
// are released before the nodes bind them; nothing else in the process
// opens sockets in between.
func loopbackConfig(g *sharegraph.Graph) (wire.ClusterConfig, error) {
	cfg := wire.ClusterConfig{Protocol: "edge-indexed", Replicas: make([]wire.NodeAddr, g.NumReplicas())}
	lns := make([]net.Listener, 0, len(cfg.Replicas))
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := range cfg.Replicas {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return cfg, fmt.Errorf("reserve port: %w", err)
		}
		lns = append(lns, ln)
		cfg.Replicas[i] = wire.NodeAddr{Addr: ln.Addr().String(), Registers: g.Stores(sharegraph.ReplicaID(i)).Sorted()}
	}
	return cfg, nil
}

func (s *tcpSystem) write(d int, o *op) error { return s.cls[d].Write(o.rep, o.reg, o.val) }

func (s *tcpSystem) read(d int, _ int32, rep sharegraph.ReplicaID, reg sharegraph.Register) (core.Value, error) {
	m, err := s.cls[d].Snapshot(rep)
	if err != nil {
		return 0, err
	}
	v, ok := m[reg]
	if !ok {
		return 0, fmt.Errorf("wire: replica %d snapshot lacks %s", rep, reg)
	}
	return v, nil
}

func (s *tcpSystem) sync() error { return s.cls[0].Quiesce(30 * time.Second) }

func (s *tcpSystem) state() (string, error) {
	st, err := s.cls[0].Snapshots()
	if err != nil {
		return "", err
	}
	return formatSpaces([][]map[sharegraph.Register]core.Value{st}), nil
}

func (s *tcpSystem) pending() (int, error) {
	m, err := s.cls[0].Metrics()
	if err != nil {
		return 0, err
	}
	return int(m.Parked), nil
}

func (s *tcpSystem) audit() error { return nil }

// envelopesPerBatch: the wire transport sends one Update frame per envelope.
func (s *tcpSystem) envelopesPerBatch() float64 { return 1 }

// close stops the client and every node and waits for each node's Serve
// to return.
func (s *tcpSystem) close() {
	for _, cl := range s.cls {
		if cl != nil {
			cl.Close()
		}
	}
	for _, n := range s.nodes {
		n.Close()
	}
	for range s.nodes {
		if err := <-s.served; err != nil {
			fmt.Printf("# serve: %v\n", err)
		}
	}
}
