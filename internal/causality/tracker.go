// Package causality is the ground-truth oracle for replica-centric causal
// consistency (Definitions 1 and 2 of Xiang & Vaidya, PODC 2019). It
// tracks the true happened-before relation ↪ between updates as events are
// reported by a simulation — independently of any protocol timestamps — and
// judges safety (no update applied before a causally preceding update on a
// co-located register) and liveness (at quiescence, every update reached
// every replica storing its register).
//
// Because the oracle sees only issue/apply events and the register
// placement, it can audit any protocol, including deliberately broken
// baselines; the test suite relies on it to demonstrate both Theorem 24
// (the paper's algorithm is safe) and Theorem 8 (weakened timestamps are
// not).
//
// The oracle's sets of update IDs come in two interchangeable
// representations: the persistent copy-on-write pset (the default — its
// O(1) snapshot removes the per-issue causal-past clone that made audited
// runs quadratic in bytes; see persist.go) and the flat bitset reference
// (NewFlatTracker), kept so differential tests can pin the two to
// identical verdicts on identical event streams.
package causality

import (
	"fmt"
	"sync"

	"repro/internal/sharegraph"
)

// UpdateID identifies an issued update in issue order (0-based).
type UpdateID int

// ViolationKind classifies consistency violations.
type ViolationKind int

const (
	// SafetyViolation: an update was applied at a replica before some
	// causally preceding update on a register that replica stores.
	SafetyViolation ViolationKind = iota + 1
	// DuplicateApply: the same update was applied twice at one replica.
	DuplicateApply
	// ForeignApply: a replica applied an update for a register it does
	// not store.
	ForeignApply
	// LivenessViolation: at quiescence, an update had not been applied at
	// some replica storing its register.
	LivenessViolation
	// StaleAccess: a replica served a client while an update in the
	// client's observed causal past, on a register the replica stores,
	// was not yet applied there (Definition 26, second safety clause).
	StaleAccess
)

func (k ViolationKind) String() string {
	switch k {
	case SafetyViolation:
		return "safety"
	case DuplicateApply:
		return "duplicate-apply"
	case ForeignApply:
		return "foreign-apply"
	case LivenessViolation:
		return "liveness"
	case StaleAccess:
		return "stale-access"
	default:
		return fmt.Sprintf("ViolationKind(%d)", int(k))
	}
}

// Violation records one detected consistency violation.
type Violation struct {
	Kind    ViolationKind
	Replica sharegraph.ReplicaID
	Update  UpdateID
	// Missing is the causally preceding update that should have been
	// applied first (SafetyViolation only).
	Missing UpdateID
}

func (v Violation) String() string {
	switch v.Kind {
	case SafetyViolation:
		return fmt.Sprintf("safety: replica %d applied update %d before its causal predecessor %d",
			v.Replica, v.Update, v.Missing)
	case LivenessViolation:
		return fmt.Sprintf("liveness: update %d never applied at replica %d", v.Update, v.Replica)
	default:
		return fmt.Sprintf("%s: replica %d update %d", v.Kind, v.Replica, v.Update)
	}
}

// updateSet is the contract both set representations satisfy. S is the
// concrete pointer type itself, so the generic tracker below compiles to
// direct calls on whichever representation it was instantiated with —
// no per-word interface dispatch on the hot path.
type updateSet[S any] interface {
	set(idx int)
	clear(idx int)
	has(idx int) bool
	count() int
	// snapshot returns an independently mutable copy: O(1) structural
	// sharing for pset, a full clone for the flat bitset.
	snapshot() S
	// orWith adds other to the receiver. prev, possibly the zero S, is a
	// set the receiver already holds in full; pset skips the subtrees
	// other shares with it (persist.go, "History-independent merges").
	orWith(other, prev S)
	// intersectsDiff reports whether receiver ∩ mask ∩ ¬excl ≠ ∅; the
	// zero S (nil) stands for the empty set.
	intersectsDiff(mask, excl S) bool
	// forEachDiff enumerates receiver ∩ mask ∩ ¬excl in ascending order.
	forEachDiff(mask, excl S, fn func(idx int) bool)
}

// oracle is the representation-independent surface Tracker delegates to.
type oracle interface {
	OnIssue(i sharegraph.ReplicaID, x sharegraph.Register) UpdateID
	OnApply(j sharegraph.ReplicaID, id UpdateID)
	OracleDeliverable(j sharegraph.ReplicaID, id UpdateID) bool
	HappenedBefore(a, b UpdateID) bool
	NumUpdates() int
	Applied(j sharegraph.ReplicaID, id UpdateID) bool
	CausalPastSize(id UpdateID) int
	CheckLiveness() []Violation
	Violations() []Violation
	Ok() bool
	OnClientAccess(c sharegraph.ClientID, i sharegraph.ReplicaID)
	OnClientWrite(c sharegraph.ClientID, i sharegraph.ReplicaID, x sharegraph.Register) UpdateID
	ClientPastSize(c sharegraph.ClientID) int
	ExportCheckpoint(j sharegraph.ReplicaID) *ReplicaCheckpoint
	RestoreCheckpoint(j sharegraph.ReplicaID, ck *ReplicaCheckpoint) error
	Impl() string
}

// Tracker is the oracle. It is safe for concurrent use, so the live
// goroutine cluster and the deterministic simulator share the same code.
type Tracker struct {
	impl oracle
}

// NewTracker builds an oracle for the given register placement, backed
// by persistent copy-on-write sets (O(1) causal-past snapshot per issue).
func NewTracker(g *sharegraph.Graph) *Tracker {
	return &Tracker{impl: newTrackerImpl(g, func() *pset { return &pset{} }, "persistent")}
}

// NewFlatTracker builds an oracle backed by flat bitsets — one full
// causal-past clone per issue, O(ops²/8) bytes per run. It exists as the
// reference for differential tests and memory benchmarks against the
// persistent representation; behavior is identical.
func NewFlatTracker(g *sharegraph.Graph) *Tracker {
	return &Tracker{impl: newTrackerImpl(g, func() *bitset { return &bitset{} }, "flat")}
}

// Impl names the set representation backing this tracker ("persistent"
// or "flat").
func (t *Tracker) Impl() string { return t.impl.Impl() }

// OnIssue records that replica i issued an update on register x and
// returns its UpdateID. Per the replica prototype (step 2), the update is
// also applied locally at i as part of issuing. The update's causal past
// is the set of updates applied at i so far, transitively closed.
func (t *Tracker) OnIssue(i sharegraph.ReplicaID, x sharegraph.Register) UpdateID {
	return t.impl.OnIssue(i, x)
}

// OnApply records that replica j applied update id (received from its
// issuer) and checks the safety property of Definition 2: every update u2
// with u2 ↪ id on a register j stores must already be applied at j.
func (t *Tracker) OnApply(j sharegraph.ReplicaID, id UpdateID) { t.impl.OnApply(j, id) }

// OracleDeliverable reports whether, per the true ↪ relation, update id
// could safely be applied at replica j right now: every causal predecessor
// on a register j stores has been applied at j. The simulator uses it to
// measure false dependencies — moments when a protocol's predicate blocked
// an update the oracle would admit.
func (t *Tracker) OracleDeliverable(j sharegraph.ReplicaID, id UpdateID) bool {
	return t.impl.OracleDeliverable(j, id)
}

// HappenedBefore reports whether a ↪ b under the true relation.
func (t *Tracker) HappenedBefore(a, b UpdateID) bool { return t.impl.HappenedBefore(a, b) }

// Concurrent reports whether neither a ↪ b nor b ↪ a.
func (t *Tracker) Concurrent(a, b UpdateID) bool {
	if a == b {
		return false
	}
	return !t.HappenedBefore(a, b) && !t.HappenedBefore(b, a)
}

// NumUpdates returns the number of updates issued so far.
func (t *Tracker) NumUpdates() int { return t.impl.NumUpdates() }

// Applied reports whether update id has been applied at replica j.
func (t *Tracker) Applied(j sharegraph.ReplicaID, id UpdateID) bool { return t.impl.Applied(j, id) }

// CausalPastSize returns |preds(id)|, the number of updates that
// happened-before id.
func (t *Tracker) CausalPastSize(id UpdateID) int { return t.impl.CausalPastSize(id) }

// CheckLiveness audits the liveness property of Definition 2 at
// quiescence: every issued update must be applied at every replica storing
// its register. Found gaps are recorded and returned.
func (t *Tracker) CheckLiveness() []Violation { return t.impl.CheckLiveness() }

// Violations returns all violations recorded so far (a copy).
func (t *Tracker) Violations() []Violation { return t.impl.Violations() }

// Ok reports whether no violation has been recorded.
func (t *Tracker) Ok() bool { return t.impl.Ok() }

// OnClientAccess records that replica i accepted (responded to) a request
// from client c, and audits the second safety clause of Definition 26:
// every update in the client's observed past on a register i stores must
// already be applied at i. The client then absorbs i's causal past.
func (t *Tracker) OnClientAccess(c sharegraph.ClientID, i sharegraph.ReplicaID) {
	t.impl.OnClientAccess(c, i)
}

// OnClientWrite records that replica i accepted a write of register x from
// client c: the new update's causal past is the union of the replica's and
// the client's pasts (Definition 25, clauses (i) and (ii)); the update is
// applied locally at i as part of issuing, and the client observes it.
// Call OnClientAccess first to audit the access itself.
func (t *Tracker) OnClientWrite(c sharegraph.ClientID, i sharegraph.ReplicaID, x sharegraph.Register) UpdateID {
	return t.impl.OnClientWrite(c, i, x)
}

// ClientPastSize returns the number of updates in client c's observed
// causal past.
func (t *Tracker) ClientPastSize(c sharegraph.ClientID) int { return t.impl.ClientPastSize(c) }

type updateInfo[S any] struct {
	issuer sharegraph.ReplicaID
	reg    sharegraph.Register
	// preds is the transitive closure of ↪ predecessors (excluding the
	// update itself), fixed at issue time per Definition 1.
	preds S
}

// logPage is the number of updates per page of an updateLog.
const logPage = 4096

// updateLog is the append-only log of issued updates, indexed by
// UpdateID and kept in pages of logPage entries so an append never moves
// the history. A single slice would re-copy the whole log on each
// growth; at 64k updates those multi-megabyte copies, and the GC work
// they draw, cost as much as an issue and its apply. The first page
// grows on demand, so a tracker that sees few updates stays small.
type updateLog[S any] struct {
	pages [][]updateInfo[S]
	n     int
}

func (l *updateLog[S]) len() int { return l.n }

// at returns update id, which must be below len.
func (l *updateLog[S]) at(id UpdateID) *updateInfo[S] {
	return &l.pages[int(id)/logPage][int(id)%logPage]
}

// add appends u and returns its UpdateID.
func (l *updateLog[S]) add(u updateInfo[S]) UpdateID {
	if l.n == len(l.pages)*logPage {
		var page []updateInfo[S]
		if l.n > 0 {
			page = make([]updateInfo[S], 0, logPage)
		}
		l.pages = append(l.pages, page)
	}
	last := &l.pages[len(l.pages)-1]
	*last = append(*last, u)
	l.n++
	return UpdateID(l.n - 1)
}

// tracker is the oracle's logic, generic over the set representation.
type tracker[S updateSet[S]] struct {
	g      *sharegraph.Graph
	newSet func() S
	name   string
	// none is the zero S (nil), standing for the empty excl argument of
	// the diff primitives.
	none S

	mu      sync.Mutex
	updates updateLog[S]
	applied []S // applied[i] = set of updates applied at replica i
	// knownPast[i] = ∪ over applied u of {u} ∪ preds(u); snapshotted per
	// issue to fix the new update's causal past.
	knownPast []S
	// merged[j][i] is the causal past of the last update issued at i that
	// OnApply folded into knownPast[j]: the prev of the next such merge.
	// Rows are allocated on a replica's first apply and dropped when
	// RestoreCheckpoint replaces its knownPast.
	merged [][]S
	// missing[i] = updates on registers replica i stores, not yet applied
	// there — relevant(i) ∖ applied(i), maintained incrementally (set on
	// issue at every non-issuing holder, cleared on apply). The per-apply
	// safety test intersects the new update's preds against it, so the
	// check scans only in-flight updates instead of the whole history.
	missing    []S
	holderIdx  map[sharegraph.Register][]sharegraph.ReplicaID
	clients    map[sharegraph.ClientID]S
	violations []Violation
}

func newTrackerImpl[S updateSet[S]](g *sharegraph.Graph, newSet func() S, name string) *tracker[S] {
	n := g.NumReplicas()
	t := &tracker[S]{
		g:         g,
		newSet:    newSet,
		name:      name,
		applied:   make([]S, n),
		knownPast: make([]S, n),
		merged:    make([][]S, n),
		missing:   make([]S, n),
		holderIdx: make(map[sharegraph.Register][]sharegraph.ReplicaID),
	}
	for i := 0; i < n; i++ {
		t.applied[i] = newSet()
		t.knownPast[i] = newSet()
		t.missing[i] = newSet()
	}
	return t
}

func (t *tracker[S]) Impl() string { return t.name }

// holders caches g.Holders per register (the graph accessor copies).
func (t *tracker[S]) holders(x sharegraph.Register) []sharegraph.ReplicaID {
	hs, ok := t.holderIdx[x]
	if !ok {
		hs = t.g.Holders(x)
		t.holderIdx[x] = hs
	}
	return hs
}

func (t *tracker[S]) OnIssue(i sharegraph.ReplicaID, x sharegraph.Register) UpdateID {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.updates.add(updateInfo[S]{
		issuer: i,
		reg:    x,
		preds:  t.knownPast[int(i)].snapshot(),
	})
	for _, h := range t.holders(x) {
		if h != i {
			t.missing[int(h)].set(int(id))
		}
	}
	t.applied[int(i)].set(int(id))
	t.knownPast[int(i)].set(int(id))
	return id
}

func (t *tracker[S]) OnApply(j sharegraph.ReplicaID, id UpdateID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) >= t.updates.len() {
		t.violations = append(t.violations, Violation{Kind: ForeignApply, Replica: j, Update: id})
		return
	}
	u := t.updates.at(id)
	if !t.g.StoresRegister(j, u.reg) {
		t.violations = append(t.violations, Violation{Kind: ForeignApply, Replica: j, Update: id})
		return
	}
	if t.applied[int(j)].has(int(id)) {
		t.violations = append(t.violations, Violation{Kind: DuplicateApply, Replica: j, Update: id})
		return
	}
	// Fast path: pure word arithmetic over the in-flight set. Only on an
	// actual violation does the per-element walk run to name the missing
	// predecessors.
	miss := t.missing[int(j)]
	if miss.intersectsDiff(u.preds, t.none) {
		miss.forEachDiff(u.preds, t.none, func(pred int) bool {
			t.violations = append(t.violations, Violation{
				Kind: SafetyViolation, Replica: j, Update: id, Missing: UpdateID(pred),
			})
			return true
		})
	}
	miss.clear(int(id))
	t.applied[int(j)].set(int(id))
	t.knownPast[int(j)].set(int(id))
	if t.merged[int(j)] == nil {
		t.merged[int(j)] = make([]S, len(t.knownPast))
	}
	last := &t.merged[int(j)][int(u.issuer)]
	t.knownPast[int(j)].orWith(u.preds, *last)
	*last = u.preds
}

func (t *tracker[S]) OracleDeliverable(j sharegraph.ReplicaID, id UpdateID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) >= t.updates.len() {
		return false
	}
	return !t.missing[int(j)].intersectsDiff(t.updates.at(id).preds, t.none)
}

func (t *tracker[S]) HappenedBefore(a, b UpdateID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(a) >= t.updates.len() || int(b) >= t.updates.len() {
		return false
	}
	return t.updates.at(b).preds.has(int(a))
}

func (t *tracker[S]) NumUpdates() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.updates.len()
}

func (t *tracker[S]) Applied(j sharegraph.ReplicaID, id UpdateID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.applied[int(j)].has(int(id))
}

func (t *tracker[S]) CausalPastSize(id UpdateID) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) >= t.updates.len() {
		return 0
	}
	return t.updates.at(id).preds.count()
}

func (t *tracker[S]) CheckLiveness() []Violation {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Violation
	for id := 0; id < t.updates.len(); id++ {
		for _, h := range t.holders(t.updates.at(UpdateID(id)).reg) {
			if !t.applied[int(h)].has(id) {
				v := Violation{Kind: LivenessViolation, Replica: h, Update: UpdateID(id)}
				out = append(out, v)
				t.violations = append(t.violations, v)
			}
		}
	}
	return out
}

func (t *tracker[S]) Violations() []Violation {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Violation(nil), t.violations...)
}

func (t *tracker[S]) Ok() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.violations) == 0
}
