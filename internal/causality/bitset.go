package causality

import "math/bits"

// bitset is a growable set of small non-negative integers used to store
// update-ID sets (causal pasts and applied sets). Executions of tens of
// thousands of updates stay compact: one bit per update ever issued.
type bitset struct {
	words []uint64
}

func (b *bitset) grow(idx int) {
	need := idx/64 + 1
	if need > len(b.words) {
		nw := make([]uint64, need*2)
		copy(nw, b.words)
		b.words = nw
	}
}

// set inserts idx.
func (b *bitset) set(idx int) {
	b.grow(idx)
	b.words[idx/64] |= 1 << (uint(idx) % 64)
}

// clear removes idx.
func (b *bitset) clear(idx int) {
	w := idx / 64
	if w >= 0 && w < len(b.words) {
		b.words[w] &^= 1 << (uint(idx) % 64)
	}
}

// has reports membership of idx.
func (b *bitset) has(idx int) bool {
	w := idx / 64
	if w >= len(b.words) {
		return false
	}
	return b.words[w]&(1<<(uint(idx)%64)) != 0
}

// orWith adds every element of other to b. prev, the already-absorbed
// set that lets pset skip shared subtrees, buys nothing on flat words and
// is ignored.
func (b *bitset) orWith(other, _ *bitset) {
	if len(other.words) > len(b.words) {
		nw := make([]uint64, len(other.words))
		copy(nw, b.words)
		b.words = nw
	}
	for i, w := range other.words {
		b.words[i] |= w
	}
}

// clone returns an independent copy.
func (b *bitset) clone() *bitset {
	out := &bitset{words: make([]uint64, len(b.words))}
	copy(out.words, b.words)
	return out
}

// snapshot returns an independent copy. The flat representation has no
// structural sharing, so this is the O(n) clone the persistent pset
// replaces — kept as the differential-testing reference.
func (b *bitset) snapshot() *bitset { return b.clone() }

// count returns the number of elements.
func (b *bitset) count() int {
	n := 0
	for _, w := range b.words {
		n += popcount(w)
	}
	return n
}

// forEachAndNot calls fn for every element in b that is NOT in excl,
// stopping early if fn returns false.
func (b *bitset) forEachAndNot(excl *bitset, fn func(idx int) bool) {
	for wi, w := range b.words {
		if wi < len(excl.words) {
			w &^= excl.words[wi]
		}
		for w != 0 {
			bit := trailingZeros(w)
			if !fn(wi*64 + bit) {
				return
			}
			w &= w - 1
		}
	}
}

// maskedWord returns b ∩ mask ∩ ¬excl restricted to word wi.
func maskedWord(b, mask, excl *bitset, wi int) uint64 {
	w := b.words[wi]
	if wi < len(mask.words) {
		w &= mask.words[wi]
	} else {
		return 0
	}
	if wi < len(excl.words) {
		w &^= excl.words[wi]
	}
	return w
}

// emptyFlat substitutes for nil mask/excl arguments so maskedWord can
// index without guards.
var emptyFlat = &bitset{}

// intersectsDiff reports whether b ∩ mask ∩ ¬excl is non-empty, purely
// with word operations — the oracle's per-apply safety test runs on this
// instead of per-element callbacks. A nil mask or excl is the empty set.
func (b *bitset) intersectsDiff(mask, excl *bitset) bool {
	if mask == nil {
		return false
	}
	if excl == nil {
		excl = emptyFlat
	}
	for wi := range b.words {
		if maskedWord(b, mask, excl, wi) != 0 {
			return true
		}
	}
	return false
}

// forEachDiff calls fn for every element of b ∩ mask ∩ ¬excl, stopping
// early if fn returns false. A nil mask or excl is the empty set.
func (b *bitset) forEachDiff(mask, excl *bitset, fn func(idx int) bool) {
	if mask == nil {
		return
	}
	if excl == nil {
		excl = emptyFlat
	}
	for wi := range b.words {
		w := maskedWord(b, mask, excl, wi)
		for w != 0 {
			bit := trailingZeros(w)
			if !fn(wi*64 + bit) {
				return
			}
			w &= w - 1
		}
	}
}

func popcount(x uint64) int      { return bits.OnesCount64(x) }
func trailingZeros(x uint64) int { return bits.TrailingZeros64(x) }
