package causality

import (
	"math/rand"
	"testing"
)

// collect enumerates a pset's contents up to limit via has().
func collectPset(p *pset, limit int) []int {
	var out []int
	for i := 0; i < limit; i++ {
		if p.has(i) {
			out = append(out, i)
		}
	}
	return out
}

func collectFlat(b *bitset, limit int) []int {
	var out []int
	for i := 0; i < limit; i++ {
		if b.has(i) {
			out = append(out, i)
		}
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPsetBasic(t *testing.T) {
	p := &pset{}
	if p.has(0) || p.count() != 0 {
		t.Fatal("zero value not empty")
	}
	p.set(3)
	p.set(200)    // still within the first tail chunk? no: 200 < 512, same chunk
	p.set(700)    // advances the tail past chunk 0
	p.set(5)      // behind the tail — lands in the tree
	p.set(100000) // forces height growth past one interior level
	for _, want := range []int{3, 5, 200, 700, 100000} {
		if !p.has(want) {
			t.Errorf("missing %d", want)
		}
	}
	for _, not := range []int{0, 4, 6, 199, 701, 99999, 100001, 1 << 30} {
		if p.has(not) {
			t.Errorf("spurious %d", not)
		}
	}
	if got := p.count(); got != 5 {
		t.Errorf("count = %d, want 5", got)
	}
	p.clear(5)
	p.clear(700)
	p.clear(12345) // absent: no-op
	if p.has(5) || p.has(700) || p.count() != 3 {
		t.Errorf("clear failed: count=%d", p.count())
	}
	p.clear(-1)
	p.set(-1)
	if p.count() != 3 {
		t.Error("negative indices must be ignored")
	}
}

func TestPsetSnapshotImmutable(t *testing.T) {
	p := &pset{}
	for i := 0; i < 2000; i += 3 {
		p.set(i)
	}
	snap := p.snapshot()
	before := collectPset(snap, 4000)
	// Mutate the source heavily after the snapshot: in-tail, in-tree and
	// frontier-advancing writes, plus clears.
	for i := 0; i < 3000; i++ {
		p.set(i)
	}
	p.clear(3)
	p.set(10000)
	if got := collectPset(snap, 4000); !equalInts(got, before) {
		t.Fatal("snapshot changed when its source was mutated")
	}
	// And the other direction: mutating the snapshot must not leak into
	// the source.
	src := &pset{}
	src.set(7)
	src.set(900)
	s2 := src.snapshot()
	s2.set(8)
	s2.clear(7)
	s2.set(5000)
	if !src.has(7) || src.has(8) || src.has(5000) || src.count() != 2 {
		t.Fatal("snapshot mutation leaked into its source")
	}
}

func TestPsetOrWithAdoptionIsolation(t *testing.T) {
	// orWith adopts subtrees from its source; later mutations on either
	// side must not show through the other.
	src := &pset{}
	for i := 0; i < 1500; i += 2 {
		src.set(i)
	}
	dst := &pset{}
	dst.set(4000) // dst's tail is ahead; src's chunks merge into dst's tree
	dst.orWith(src, nil)
	if dst.count() != 751 || !dst.has(0) || !dst.has(1498) {
		t.Fatalf("union wrong: count=%d", dst.count())
	}
	src.set(9)    // mutate source after adoption
	dst.clear(10) // and destination
	if dst.has(9) {
		t.Error("source mutation leaked into destination")
	}
	if !src.has(10) {
		t.Error("destination mutation leaked into source")
	}
}

func TestPsetOrWithTailCases(t *testing.T) {
	mk := func(idxs ...int) *pset {
		p := &pset{}
		for _, i := range idxs {
			p.set(i)
		}
		return p
	}
	cases := []struct {
		name     string
		dst, src *pset
		want     []int
	}{
		{"src tail ahead", mk(1, 513), mk(2000), []int{1, 513, 2000}},
		{"same tail chunk", mk(520, 530), mk(525), []int{520, 525, 530}},
		{"src tail behind", mk(3000), mk(40), []int{40, 3000}},
		{"into empty", &pset{}, mk(5, 600, 20000), []int{5, 600, 20000}},
		{"from empty", mk(5, 600), &pset{}, []int{5, 600}},
	}
	for _, tc := range cases {
		tc.dst.orWith(tc.src, nil)
		if got := collectPset(tc.dst, 50000); !equalInts(got, tc.want) {
			t.Errorf("%s: got %v want %v", tc.name, got, tc.want)
		}
	}
	// Self-union is a no-op.
	p := mk(1, 2, 3)
	p.orWith(p, nil)
	if p.count() != 3 {
		t.Error("self orWith changed the set")
	}
	p.orWith(nil, nil)
	if p.count() != 3 {
		t.Error("nil orWith changed the set")
	}
}

func TestPsetDiffPrimitives(t *testing.T) {
	b := &pset{}
	mask := &pset{}
	excl := &pset{}
	for _, i := range []int{3, 64, 600, 2000} {
		b.set(i)
	}
	for _, i := range []int{3, 600, 2000, 9999} {
		mask.set(i)
	}
	excl.set(600)
	if !b.intersectsDiff(mask, excl) {
		t.Fatal("intersection should be non-empty")
	}
	var got []int
	b.forEachDiff(mask, excl, func(i int) bool { got = append(got, i); return true })
	if !equalInts(got, []int{3, 2000}) {
		t.Fatalf("forEachDiff = %v, want [3 2000]", got)
	}
	// Early stop.
	calls := 0
	b.forEachDiff(mask, nil, func(i int) bool { calls++; return false })
	if calls != 1 {
		t.Errorf("early stop made %d calls", calls)
	}
	// nil mask/excl are the empty set; nil receiver intersects nothing.
	if b.intersectsDiff(nil, nil) {
		t.Error("nil mask should intersect nothing")
	}
	if !b.intersectsDiff(mask, nil) {
		t.Error("nil excl should exclude nothing")
	}
	if (*pset)(nil).intersectsDiff(mask, nil) {
		t.Error("nil receiver should intersect nothing")
	}
	excl2 := &pset{}
	for _, i := range []int{3, 2000} {
		excl2.set(i)
	}
	if b.intersectsDiff(mask, func() *pset { e := excl2.snapshot(); e.set(600); return e }()) {
		t.Error("full exclusion should empty the intersection")
	}
}

// TestPsetMatchesFlatRandomOps drives a pset and a flat bitset through
// identical randomized operation streams — frontier-style and random
// sets, clears, unions, snapshots — and requires identical contents at
// every checkpoint, including for every snapshot ever taken (frozen
// copies must never change afterwards).
func TestPsetMatchesFlatRandomOps(t *testing.T) {
	const maxIdx = 60000 // spans three tree heights
	type pair struct {
		p *pset
		b *bitset
	}
	type frozen struct {
		p    *pset
		want *bitset
	}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pairs := []*pair{{&pset{}, &bitset{}}, {&pset{}, &bitset{}}, {&pset{}, &bitset{}}}
		var snaps []frozen
		frontier := 0
		randIdx := func() int {
			if rng.Intn(3) > 0 { // mostly sequential, like update IDs
				frontier += rng.Intn(40)
				return frontier % maxIdx
			}
			return rng.Intn(maxIdx)
		}
		for step := 0; step < 4000; step++ {
			pr := pairs[rng.Intn(len(pairs))]
			switch rng.Intn(10) {
			case 0, 1, 2, 3, 4:
				i := randIdx()
				pr.p.set(i)
				pr.b.set(i)
			case 5:
				i := randIdx()
				pr.p.clear(i)
				pr.b.clear(i)
			case 6:
				other := pairs[rng.Intn(len(pairs))]
				if other != pr {
					pr.p.orWith(other.p, nil)
					pr.b.orWith(other.b, nil)
				}
			case 7:
				snaps = append(snaps, frozen{p: pr.p.snapshot(), want: pr.b.clone()})
				if rng.Intn(2) == 0 {
					// Snapshots are mutable copies: promote a second,
					// independent one to a live pair so the CoW paths get
					// exercised from both sides while the first stays
					// frozen.
					pairs = append(pairs, &pair{pr.p.snapshot(), pr.b.clone()})
					if len(pairs) > 6 {
						pairs = pairs[1:]
					}
				}
			case 8:
				a, b := pairs[rng.Intn(len(pairs))], pairs[rng.Intn(len(pairs))]
				if got, want := a.p.intersectsDiff(b.p, pr.p), a.b.intersectsDiff(b.b, pr.b); got != want {
					t.Fatalf("seed %d step %d: intersectsDiff %v want %v", seed, step, got, want)
				}
			case 9:
				if got, want := pr.p.count(), pr.b.count(); got != want {
					t.Fatalf("seed %d step %d: count %d want %d", seed, step, got, want)
				}
			}
		}
		for k, pr := range pairs {
			if got, want := collectPset(pr.p, maxIdx), collectFlat(pr.b, maxIdx); !equalInts(got, want) {
				t.Fatalf("seed %d: pair %d diverged (%d vs %d elements)", seed, k, len(got), len(want))
			}
		}
		for k, s := range snaps {
			if got, want := collectPset(s.p, maxIdx), collectFlat(s.want, maxIdx); !equalInts(got, want) {
				t.Fatalf("seed %d: snapshot %d mutated after the fact (%d vs %d elements)", seed, k, len(got), len(want))
			}
		}
	}
}

// psetEqualsFlat reports whether p and b hold the same elements, word by
// word over p's chunks and b's words.
func psetEqualsFlat(p *pset, b *bitset) bool {
	words := make([]uint64, len(b.words))
	ok := true
	p.eachChunk(func(ci int, c *pchunk) bool {
		for k, w := range c {
			wi := ci*pchunkWords + k
			switch {
			case wi < len(words):
				words[wi] = w
			case w != 0:
				ok = false
				return false
			}
		}
		return true
	})
	for wi := range words {
		if words[wi] != b.words[wi] {
			return false
		}
	}
	return ok
}

func TestPsetOrWithPrevSkipsSharedSubtrees(t *testing.T) {
	// src extends prev: leaves 0–4 stay shared, leaf 5 is the old tail
	// pushed into the tree, and the tail moves to chunk 9. dst holds
	// none of prev, so the skipped leaves stay out of dst — which shows
	// they were skipped rather than merged.
	live := &pset{}
	for i := 0; i < 3000; i++ {
		live.set(i)
	}
	prev := live.snapshot()
	live.set(5000)
	src := live.snapshot()
	dst := &pset{}
	dst.set(1)
	dst.set(600)
	dst.orWith(src, prev)
	for _, in := range []int{1, 600, 2560, 2999, 5000} {
		if !dst.has(in) {
			t.Errorf("missing %d", in)
		}
	}
	for _, out := range []int{0, 2, 599, 601, 2559} {
		if dst.has(out) {
			t.Errorf("%d merged from a subtree shared with prev", out)
		}
	}
	// With prev one level shorter than src nothing is skipped: pushing
	// chunk 78 into the tree raises it to height 2.
	live.set(40000)
	live.set(50000)
	tall := live.snapshot()
	if tall.height == src.height {
		t.Fatalf("tall has src's height %d", src.height)
	}
	dst2 := &pset{}
	dst2.set(1)
	dst2.orWith(tall, src)
	if got, want := dst2.count(), tall.count(); got != want {
		t.Errorf("prev of another height: count %d, want %d", got, want)
	}
}

// TestPsetOrWithPrevMatchesFlat drives the skip rule the oracle relies
// on. dst absorbs successive snapshots of a live lineage, each with the
// last absorbed snapshot as prev, and must equal the flat union after
// every merge. The lineage interleaves in-tail and behind-tail sets,
// frontier jumps across chunk boundaries and tree heights, and adoption
// from a second lineage; dst gains bits of its own; and prev is now and
// then nil, an older absorbed snapshot, or an unrelated set that shares
// no structure with src.
func TestPsetOrWithPrevMatchesFlat(t *testing.T) {
	const maxIdx = 60000 // spans three tree heights
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		live, liveF := &pset{}, &bitset{}
		other, otherF := &pset{}, &bitset{}
		dst, dstF := &pset{}, &bitset{}
		var absorbed []*pset
		frontier := 0
		nextIdx := func() int {
			switch rng.Intn(20) {
			case 0:
				return rng.Intn(maxIdx) // behind the tail
			case 1:
				frontier += pchunkBits * (1 + rng.Intn(40)) // across chunks, sometimes heights
			default:
				frontier += rng.Intn(24)
			}
			frontier %= maxIdx
			return frontier
		}
		merges := 0
		for step := 0; step < 3000; step++ {
			switch rng.Intn(9) {
			case 0, 1, 2:
				i := nextIdx()
				live.set(i)
				liveF.set(i)
			case 3:
				i := rng.Intn(maxIdx)
				other.set(i)
				otherF.set(i)
			case 4:
				live.orWith(other, nil)
				liveF.orWith(otherF, nil)
			case 5:
				i := rng.Intn(maxIdx)
				dst.set(i)
				dstF.set(i)
			default:
				snap := live.snapshot()
				var prev *pset
				switch r := rng.Intn(8); {
				case r == 0:
				case r == 1 && len(absorbed) > 0:
					prev = absorbed[rng.Intn(len(absorbed))]
				case r == 2:
					prev = &pset{}
					for k := 0; k < 200; k++ {
						prev.set(rng.Intn(maxIdx))
					}
				case len(absorbed) > 0:
					prev = absorbed[len(absorbed)-1]
				}
				dst.orWith(snap, prev)
				dstF.orWith(liveF, nil)
				absorbed = append(absorbed, snap)
				merges++
				if !psetEqualsFlat(dst, dstF) {
					t.Fatalf("seed %d step %d: dst differs from the flat union after merge %d (%d vs %d elements)",
						seed, step, merges, dst.count(), dstF.count())
				}
			}
		}
		if !psetEqualsFlat(live, liveF) {
			t.Fatalf("seed %d: live lineage differs from its flat mirror", seed)
		}
	}
}
