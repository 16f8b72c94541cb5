package causality

import "repro/internal/sharegraph"

// Client-server extensions (Appendix E): clients propagate causal
// dependencies between replicas they access, so the happened-before
// relation ↪′ (Definition 25) gains a clause — an update issued by a
// client depends on everything applied at every replica that client
// previously accessed. The oracle models this with one causal-past set
// per client.

func (t *tracker[S]) OnClientAccess(c sharegraph.ClientID, i sharegraph.ReplicaID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	past := t.clientPast(c)
	// Definition 26, second safety clause: anything in the client's
	// observed past that is still missing at i is a stale access.
	t.missing[int(i)].forEachDiff(past, t.none, func(u int) bool {
		t.violations = append(t.violations, Violation{
			Kind: StaleAccess, Replica: i, Update: UpdateID(u), Missing: UpdateID(u),
		})
		return true
	})
	past.orWith(t.knownPast[int(i)], t.none)
}

func (t *tracker[S]) OnClientWrite(c sharegraph.ClientID, i sharegraph.ReplicaID, x sharegraph.Register) UpdateID {
	t.mu.Lock()
	defer t.mu.Unlock()
	preds := t.knownPast[int(i)].snapshot()
	past := t.clientPast(c)
	preds.orWith(past, t.none)
	id := t.updates.add(updateInfo[S]{issuer: i, reg: x, preds: preds})
	for _, h := range t.holders(x) {
		if h != i {
			t.missing[int(h)].set(int(id))
		}
	}
	t.applied[int(i)].set(int(id))
	t.knownPast[int(i)].set(int(id))
	t.knownPast[int(i)].orWith(preds, t.none)
	past.set(int(id))
	past.orWith(preds, t.none)
	return id
}

// clientPast returns (lazily creating) client c's causal-past set.
// Caller holds t.mu.
func (t *tracker[S]) clientPast(c sharegraph.ClientID) S {
	if t.clients == nil {
		t.clients = make(map[sharegraph.ClientID]S)
	}
	b, ok := t.clients[c]
	if !ok {
		b = t.newSet()
		t.clients[c] = b
	}
	return b
}

func (t *tracker[S]) ClientPastSize(c sharegraph.ClientID) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.clientPast(c).count()
}
