package causality

import (
	"fmt"

	"repro/internal/sharegraph"
)

// ReplicaCheckpoint freezes one replica's oracle-side state — its
// applied set and its known causal past — for crash/restart recovery.
// With the persistent set representation the export is O(1) structural
// sharing (the same mechanism that froze per-issue causal pasts in
// PR 4), so checkpointing is cheap enough to take eagerly.
//
// The frozen sets are opaque: a checkpoint restores only into a tracker
// of the same representation it was exported from.
type ReplicaCheckpoint struct {
	// Replica is the checkpointed replica.
	Replica sharegraph.ReplicaID
	// Issued is the number of updates issued system-wide at export time
	// (diagnostics only; restore does not depend on it).
	Issued int

	applied any
	known   any
}

// ExportCheckpoint freezes replica j's applied set and known causal
// past. The snapshot is independently mutable state: later tracker
// activity never leaks into it.
func (t *Tracker) ExportCheckpoint(j sharegraph.ReplicaID) *ReplicaCheckpoint {
	return t.impl.ExportCheckpoint(j)
}

// RestoreCheckpoint rolls replica j's oracle state back to a checkpoint:
// applied and known-past revert to the frozen sets and the in-flight
// (missing) index is recomputed against every update issued so far —
// updates issued while the replica was down correctly reappear as
// missing and must be re-applied for liveness. Update metadata (issuer,
// register, causal past) is global and survives untouched.
func (t *Tracker) RestoreCheckpoint(j sharegraph.ReplicaID, ck *ReplicaCheckpoint) error {
	return t.impl.RestoreCheckpoint(j, ck)
}

func (t *tracker[S]) ExportCheckpoint(j sharegraph.ReplicaID) *ReplicaCheckpoint {
	t.mu.Lock()
	defer t.mu.Unlock()
	return &ReplicaCheckpoint{
		Replica: j,
		Issued:  t.updates.len(),
		applied: t.applied[int(j)].snapshot(),
		known:   t.knownPast[int(j)].snapshot(),
	}
}

func (t *tracker[S]) RestoreCheckpoint(j sharegraph.ReplicaID, ck *ReplicaCheckpoint) error {
	if ck == nil {
		return fmt.Errorf("causality: nil checkpoint")
	}
	if ck.Replica != j {
		return fmt.Errorf("causality: checkpoint of replica %d restored at %d", ck.Replica, j)
	}
	ap, okA := ck.applied.(S)
	kn, okK := ck.known.(S)
	if !okA || !okK {
		return fmt.Errorf("causality: checkpoint from a different set representation than %q", t.name)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Re-snapshot on the way in so the caller may restore the same
	// checkpoint again after a second crash.
	t.applied[int(j)] = ap.snapshot()
	t.knownPast[int(j)] = kn.snapshot()
	// The rolled-back knownPast may lack causal pasts merged since the
	// checkpoint, so they can no longer stand as prev for a merge.
	t.merged[int(j)] = nil
	// missing[j] = {updates on registers j stores} ∖ applied[j]. A full
	// recompute is O(updates issued), paid only on restart. The rolled-
	// back applied set also uncovers j's own post-checkpoint issues;
	// replaying them reports OnApply, which requires them missing here.
	m := t.newSet()
	for id := 0; id < t.updates.len(); id++ {
		if t.g.StoresRegister(j, t.updates.at(UpdateID(id)).reg) && !t.applied[int(j)].has(id) {
			m.set(id)
		}
	}
	t.missing[int(j)] = m
	return nil
}
