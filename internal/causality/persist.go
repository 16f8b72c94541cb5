package causality

// Persistent copy-on-write update sets.
//
// The oracle snapshots a replica's causal past once per issued update
// (Definition 1 fixes preds at issue time). With the flat bitset that
// snapshot is a full clone — O(ops/8) bytes each, O(ops²/8) per audited
// run, ~300 MB at 50k operations — which made every scale benchmark
// either skip auditing or pay the quadratic clone. pset replaces the
// clone with structural sharing: a radix tree of 512-bit chunks where
// snapshot is O(1) (share the root, bump an epoch) and set/orWith copy
// only the path they touch.
//
// Sharing discipline. Every node carries an (owner, epoch) tag. A set p
// may mutate a node in place iff the node's tag matches p's current
// identity and epoch; otherwise the node may be reachable from an older
// snapshot and the mutation copies the path first. snapshot bumps the
// source's epoch — an O(1) freeze — so structure built before the
// snapshot is copy-on-write afterwards, while structure built after it
// is mutated in place again. orWith freezes its source the same way
// before adopting subtree pointers, so a set may absorb another's chunks
// without copying them until either side writes. The owner tag is a
// strong pointer, so a tagged node keeps its owner alive and an owner
// address is never recycled into a false match.
//
// History-independent merges. A frozen node is never mutated again, by
// its owner or anyone else, so its contents are fixed for good. Hence if
// dst already absorbed a set prev, and src holds at some tree position
// the very node prev holds there, that subtree adds nothing to dst and
// orWith(src, prev) skips it. Successive causal-past snapshots of one
// replica share every subtree the replica did not touch in between, so
// merging them in sequence costs what changed, not the whole history.
// The skip is sound only while dst keeps every bit of prev, which the
// oracle guarantees by construction: knownPast only grows, and restoring
// a checkpoint (which replaces knownPast) drops the tracker's memo of
// merged snapshots for that replica.
//
// Tail. Update IDs are issued in increasing order, so nearly every set()
// lands in the current highest chunk. That frontier chunk lives by value
// in the pset struct ("tail") rather than in the tree: sets to it are
// plain word stores with no path copy, and snapshot copies it implicitly
// when the struct is copied. The tail is pushed into the tree only when
// the frontier advances past it — once per 512 IDs — which is what makes
// the per-issue snapshot cost O(1) amortized instead of one path copy
// per issue. Invariant: the tree never holds a chunk at or above the
// tail's chunk index, so iteration (tree, then tail) stays ascending.
//
// When flat still wins: executions short enough that the whole ID space
// fits in a few words (a clone is one small memcpy, cheaper than any
// tree discipline), and access patterns that are pure random writes with
// no snapshots — the flat words are contiguous, the tree adds a pointer
// hop per 512 bits. The oracle's workload — sequential issue, O(1)
// snapshot per issue, unions against near-identical pasts — is exactly
// the shape the tree is built for; NewFlatTracker keeps the flat
// representation for differential tests and for tiny runs.

const (
	// pchunkWords is the leaf granularity: 512-bit chunks, small enough
	// that the per-epoch copy of a freshly shared chunk is one cache line
	// pair, large enough that word-parallel intersection amortizes the
	// pointer hop.
	pchunkWords = 8
	// pchunkBits is the number of update IDs one leaf covers.
	pchunkBits = pchunkWords * 64
	// pfanout is the radix of interior nodes; pshift its log2. Height 2
	// covers half a million updates.
	pfanout = 32
	pshift  = 5
)

// pchunk is one leaf's worth of bits.
type pchunk [pchunkWords]uint64

// pnode is a tree node: a leaf (words != nil) or an interior node
// (kids != nil). The (owner, epoch) tag implements the sharing
// discipline above.
type pnode struct {
	owner *pset
	epoch uint64
	kids  *[pfanout]*pnode
	words *pchunk
}

// pset is a persistent bitset over update IDs. The zero value is an
// empty set ready for use. Not safe for concurrent use — the tracker's
// mutex serializes all oracle sets.
type pset struct {
	root   *pnode
	height int // interior levels above the leaves; capacity pfanout^height chunks
	epoch  uint64
	// tail is the frontier chunk, covering [tailBase, tailBase+pchunkBits).
	tailBase int
	tail     pchunk
}

// capChunks returns how many chunks the tree can address at its current
// height.
func (p *pset) capChunks() int { return 1 << (pshift * p.height) }

func (p *pset) tailChunk() int { return p.tailBase / pchunkBits }

// owns reports whether p may mutate n in place.
func (p *pset) owns(n *pnode) bool { return n.owner == p && n.epoch == p.epoch }

// leafBlock and interiorBlock co-allocate a node with its payload array,
// so materializing or copy-on-writing a node is one allocation, not two.
type leafBlock struct {
	n pnode
	w pchunk
}

type interiorBlock struct {
	n pnode
	k [pfanout]*pnode
}

// newNode allocates an owned empty node for the given level.
func (p *pset) newNode(level int) *pnode {
	if level == 0 {
		b := &leafBlock{n: pnode{owner: p, epoch: p.epoch}}
		b.n.words = &b.w
		return &b.n
	}
	return p.newInterior()
}

func (p *pset) newInterior() *pnode {
	b := &interiorBlock{n: pnode{owner: p, epoch: p.epoch}}
	b.n.kids = &b.k
	return &b.n
}

// copyNode returns an owned shallow copy of n (kids pointers stay
// shared; the arrays themselves are duplicated so the copy can diverge).
func (p *pset) copyNode(n *pnode) *pnode {
	if n.words != nil {
		b := &leafBlock{n: pnode{owner: p, epoch: p.epoch}, w: *n.words}
		b.n.words = &b.w
		return &b.n
	}
	b := &interiorBlock{n: pnode{owner: p, epoch: p.epoch}, k: *n.kids}
	b.n.kids = &b.k
	return &b.n
}

// growTo raises the tree height until chunk index ci is addressable.
func (p *pset) growTo(ci int) {
	for p.capChunks() <= ci {
		if p.root != nil {
			nr := p.newInterior()
			nr.kids[0] = p.root
			p.root = nr
		}
		p.height++
	}
}

// ownedLeaf returns the leaf for chunk ci, materializing and
// copy-on-writing the path so the caller may mutate it in place.
func (p *pset) ownedLeaf(ci int) *pnode {
	p.growTo(ci)
	switch {
	case p.root == nil:
		p.root = p.newNode(p.height)
	case !p.owns(p.root):
		p.root = p.copyNode(p.root)
	}
	n := p.root
	for level := p.height; level > 0; level-- {
		d := (ci >> (pshift * (level - 1))) & (pfanout - 1)
		k := n.kids[d]
		switch {
		case k == nil:
			k = p.newNode(level - 1)
			n.kids[d] = k
		case !p.owns(k):
			k = p.copyNode(k)
			n.kids[d] = k
		}
		n = k
	}
	return n
}

// pushTail folds the tail chunk into the tree. Callers advance tailBase
// immediately after, restoring the chunk-index invariant.
func (p *pset) pushTail() {
	if p.tail == (pchunk{}) {
		return
	}
	l := p.ownedLeaf(p.tailChunk())
	for k := range l.words {
		l.words[k] |= p.tail[k]
	}
}

// set inserts idx.
func (p *pset) set(idx int) {
	if idx < 0 {
		return
	}
	ci := idx / pchunkBits
	tc := p.tailChunk()
	switch {
	case ci == tc:
		p.tail[(idx%pchunkBits)/64] |= 1 << (uint(idx) % 64)
	case ci > tc:
		p.pushTail()
		p.tailBase = ci * pchunkBits
		p.tail = pchunk{}
		p.tail[(idx%pchunkBits)/64] |= 1 << (uint(idx) % 64)
	default:
		l := p.ownedLeaf(ci)
		l.words[(idx%pchunkBits)/64] |= 1 << (uint(idx) % 64)
	}
}

// clear removes idx, pruning the leaf if it empties so long-lived
// in-flight sets (the tracker's missing sets) stay proportional to
// their live contents.
func (p *pset) clear(idx int) {
	if idx < 0 {
		return
	}
	ci := idx / pchunkBits
	tc := p.tailChunk()
	if ci == tc {
		p.tail[(idx%pchunkBits)/64] &^= 1 << (uint(idx) % 64)
		return
	}
	if ci > tc || p.chunkAt(ci) == nil {
		return
	}
	l := p.ownedLeaf(ci)
	l.words[(idx%pchunkBits)/64] &^= 1 << (uint(idx) % 64)
	if *l.words == (pchunk{}) {
		p.detachLeaf(ci)
	}
}

// detachLeaf removes the (owned, just-emptied) leaf for chunk ci.
func (p *pset) detachLeaf(ci int) {
	if p.height == 0 {
		p.root = nil
		return
	}
	n := p.root
	for level := p.height; level > 1; level-- {
		n = n.kids[(ci>>(pshift*(level-1)))&(pfanout-1)]
	}
	n.kids[ci&(pfanout-1)] = nil
}

// chunkAt returns the chunk covering index ci, or nil. Works on a nil
// receiver (the empty set).
func (p *pset) chunkAt(ci int) *pchunk {
	if p == nil || ci < 0 {
		return nil
	}
	tc := p.tailChunk()
	if ci == tc {
		return &p.tail
	}
	if ci > tc || p.root == nil || ci >= p.capChunks() {
		return nil
	}
	n := p.root
	for level := p.height; level > 0; level-- {
		n = n.kids[(ci>>(pshift*(level-1)))&(pfanout-1)]
		if n == nil {
			return nil
		}
	}
	return n.words
}

// has reports membership of idx.
func (p *pset) has(idx int) bool {
	if p == nil || idx < 0 {
		return false
	}
	c := p.chunkAt(idx / pchunkBits)
	if c == nil {
		return false
	}
	return c[(idx%pchunkBits)/64]&(1<<(uint(idx)%64)) != 0
}

// snapshot returns an independently mutable copy in O(1): the tree is
// shared (the source's epoch bump freezes it on both sides) and the tail
// rides along by value.
func (p *pset) snapshot() *pset {
	p.epoch++
	return &pset{root: p.root, height: p.height, tailBase: p.tailBase, tail: p.tail}
}

// orWith adds every element of src to p, adopting src's subtrees where p
// has none, skipping pointer-equal or already-subsumed chunks, and
// copying only the paths that actually gain bits. prev, when non-nil, is
// a set p has already absorbed in full (see "History-independent merges"
// above): src subtrees pointer-equal to prev's at the same position are
// skipped. The tail is always merged, and a prev of another height than
// src skips nothing.
func (p *pset) orWith(src, prev *pset) {
	if src == nil || src == p {
		return
	}
	// Freeze src: adopted nodes may be reached from src too, so src must
	// copy-on-write from here on, exactly as after a snapshot.
	src.epoch++
	stc, dtc := src.tailChunk(), p.tailChunk()
	switch {
	case stc > dtc:
		p.pushTail()
		p.tailBase = src.tailBase
		p.tail = src.tail
	case stc == dtc:
		for k := range p.tail {
			p.tail[k] |= src.tail[k]
		}
	default:
		if src.tail != (pchunk{}) {
			l := p.ownedLeaf(stc)
			for k := range l.words {
				l.words[k] |= src.tail[k]
			}
		}
	}
	if src.root == nil {
		return
	}
	for p.height < src.height {
		if p.root != nil {
			nr := p.newInterior()
			nr.kids[0] = p.root
			p.root = nr
		}
		p.height++
	}
	var skip *pnode
	if prev != nil && prev.height == src.height {
		skip = prev.root
	}
	p.root = p.mergeTop(p.root, src.root, skip, p.height, src.height)
}

// mergeTop merges src (rooted at level sl) into dst (rooted at level
// dl ≥ sl); a shorter src occupies dst's leftmost spine. skip is the
// node at src's position in an already-absorbed set, or nil.
func (p *pset) mergeTop(dst, src, skip *pnode, dl, sl int) *pnode {
	if dl == sl {
		return p.mergeNode(dst, src, skip, dl)
	}
	if dst == nil {
		for l := sl; l < dl; l++ {
			w := p.newInterior()
			w.kids[0] = src
			src = w
		}
		return src
	}
	nk := p.mergeTop(dst.kids[0], src, skip, dl-1, sl)
	if nk != dst.kids[0] {
		if !p.owns(dst) {
			dst = p.copyNode(dst)
		}
		dst.kids[0] = nk
	}
	return dst
}

// mergeNode returns the union of dst and src at the given level,
// mutating dst in place where owned and sharing otherwise. A src equal
// to skip, the node at the same position in an already-absorbed set,
// adds nothing.
func (p *pset) mergeNode(dst, src, skip *pnode, level int) *pnode {
	if src == nil || dst == src || src == skip {
		return dst
	}
	if dst == nil {
		return src // adopt the shared subtree wholesale
	}
	if level == 0 {
		changed := false
		for k := 0; k < pchunkWords; k++ {
			if src.words[k]&^dst.words[k] != 0 {
				changed = true
				break
			}
		}
		if !changed {
			return dst
		}
		if !p.owns(dst) {
			dst = p.copyNode(dst)
		}
		for k := 0; k < pchunkWords; k++ {
			dst.words[k] |= src.words[k]
		}
		return dst
	}
	var skipKids *[pfanout]*pnode
	if skip != nil {
		skipKids = skip.kids
	}
	d := dst
	for k := 0; k < pfanout; k++ {
		sk := src.kids[k]
		if sk == nil {
			continue
		}
		var kk *pnode
		if skipKids != nil {
			kk = skipKids[k]
		}
		nk := p.mergeNode(d.kids[k], sk, kk, level-1)
		if nk != d.kids[k] {
			if !p.owns(d) {
				d = p.copyNode(d)
			}
			d.kids[k] = nk
		}
	}
	return d
}

// eachChunk calls fn for every chunk in ascending chunk-index order
// (tree chunks, then the tail), stopping early if fn returns false.
func (p *pset) eachChunk(fn func(ci int, c *pchunk) bool) {
	if p == nil {
		return
	}
	if p.root != nil && !eachChunkNode(p.root, p.height, 0, fn) {
		return
	}
	fn(p.tailChunk(), &p.tail)
}

func eachChunkNode(n *pnode, level, base int, fn func(int, *pchunk) bool) bool {
	if level == 0 {
		return fn(base, n.words)
	}
	stride := 1 << (pshift * (level - 1))
	for k, kid := range n.kids {
		if kid == nil {
			continue
		}
		if !eachChunkNode(kid, level-1, base+k*stride, fn) {
			return false
		}
	}
	return true
}

// count returns the number of elements.
func (p *pset) count() int {
	n := 0
	p.eachChunk(func(_ int, c *pchunk) bool {
		for _, w := range c {
			n += popcount(w)
		}
		return true
	})
	return n
}

// maskedChunkWord returns c ∩ mask ∩ ¬excl restricted to word k of chunk
// ci — the chunk-level counterpart of the flat bitset's maskedWord, so
// the safety check stays pure word arithmetic.
func maskedChunkWord(c, mask, excl *pchunk, k int) uint64 {
	w := c[k] & mask[k]
	if excl != nil {
		w &^= excl[k]
	}
	return w
}

// intersectsDiff reports whether p ∩ mask ∩ ¬excl is non-empty with
// word-parallel chunk operations. A nil mask or excl is the empty set.
func (p *pset) intersectsDiff(mask, excl *pset) bool {
	if p == nil || mask == nil {
		return false
	}
	found := false
	p.eachChunk(func(ci int, c *pchunk) bool {
		m := mask.chunkAt(ci)
		if m == nil {
			return true
		}
		e := excl.chunkAt(ci)
		for k := 0; k < pchunkWords; k++ {
			if maskedChunkWord(c, m, e, k) != 0 {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// forEachDiff calls fn for every element of p ∩ mask ∩ ¬excl in
// ascending order, stopping early if fn returns false. A nil mask or
// excl is the empty set.
func (p *pset) forEachDiff(mask, excl *pset, fn func(idx int) bool) {
	if p == nil || mask == nil {
		return
	}
	p.eachChunk(func(ci int, c *pchunk) bool {
		m := mask.chunkAt(ci)
		if m == nil {
			return true
		}
		e := excl.chunkAt(ci)
		base := ci * pchunkBits
		for k := 0; k < pchunkWords; k++ {
			w := maskedChunkWord(c, m, e, k)
			for w != 0 {
				bit := trailingZeros(w)
				if !fn(base + k*64 + bit) {
					return false
				}
				w &= w - 1
			}
		}
		return true
	})
}
