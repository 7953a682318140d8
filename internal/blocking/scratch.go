package blocking

// splitScratch is a refinement tree's working set for counting, splitting
// and ranking blocks: one slot per dictionary code, live only while its
// epoch equals the scratch's, so starting the next block is one increment
// and no clear. The per-child counts, the split output and the block
// order are reused across calls. Nothing in it may outlive the call that
// filled it: a kept split is cloned out of bufs.
type splitScratch struct {
	slots      []codeSlot
	epoch      uint32
	cntS, cntT []int32  // split: one parent's children; cntS also bySourceSize's size buckets
	bufs       [2]level // split output before it is kept, alternately
	order      []int32  // LeastIndeterminate: mixed block indices by decreasing source size
}

// codeSlot is one code's slot: val is a block's |T| − |S| for the code
// while counting, and the code's child id while splitting.
type codeSlot struct {
	epoch uint32
	val   int32
}

// reset prepares the scratch for codes below n.
func (sc *splitScratch) reset(n int) {
	if len(sc.slots) < n {
		sc.slots = make([]codeSlot, n)
	}
}

// next starts a new block: every slot reads as unset until written.
func (sc *splitScratch) next() uint32 {
	sc.epoch++
	if sc.epoch == 0 { // wrapped: no stale slot may look live
		clear(sc.slots)
		sc.epoch = 1
	}
	return sc.epoch
}

// countDense returns the target and source surplus of one level block,
// its members src and tgt. Sources run first and only move their slots
// away from zero, so Σ|diff| starts at
// |S|; each target then moves its slot by one towards or away from zero.
// With Σ diff = |T| − |S| that yields both halves of the surplus without a
// pass over the touched codes. A 1:1 block is one comparison: it stays
// whole or adds one surplus record on each side.
func (sc *splitScratch) countDense(src, tgt, memo, srcCodes, tgtCodes []int32) (tSur, sSur int) {
	if len(src) == 1 && len(tgt) == 1 {
		if memo[srcCodes[src[0]]] == tgtCodes[tgt[0]] {
			return 0, 0
		}
		return 1, 1
	}
	epoch, slots := sc.next(), sc.slots
	for _, s := range src {
		p := &slots[memo[srcCodes[s]]]
		if p.epoch != epoch {
			p.epoch, p.val = epoch, 0
		}
		p.val--
	}
	abs := len(src)
	for _, t := range tgt {
		p := &slots[tgtCodes[t]]
		if p.epoch != epoch {
			p.epoch, p.val = epoch, 0
		}
		if p.val >= 0 {
			abs++
		} else {
			abs--
		}
		p.val++
	}
	net := len(tgt) - len(src)
	return (abs + net) / 2, (abs - net) / 2
}

// level is one blocking result's mixed blocks laid out flat, in block
// order: block i holds the sources src[srcEnd[i−1]:srcEnd[i]] and the
// targets tgt[tgtEnd[i−1]:tgtEnd[i]] (ends[−1] = 0). It is the only form
// a block takes: every reader indexes it through block.
type level struct {
	src, tgt       []int32
	srcEnd, tgtEnd []int32
}

// block returns block i's sources and targets, each capped at its end.
func (lv *level) block(i int) (src, tgt []int32) {
	s, t := int32(0), int32(0)
	if i > 0 {
		s, t = lv.srcEnd[i-1], lv.tgtEnd[i-1]
	}
	return lv.src[s:lv.srcEnd[i]:lv.srcEnd[i]], lv.tgt[t:lv.tgtEnd[i]:lv.tgtEnd[i]]
}

// split splits each block of in by split code — memo[source code] for a
// source, the raw code for a target — and lays the mixed children out in
// out, reusing its arrays' capacity: parent order, then first appearance,
// sources before targets. It returns the records of the pure children.
// Members stay ascending: each child takes its parent's members in the
// parent's order. A parent is split while its members are hot: one pass
// counts its children, the next places the mixed children's members. A
// 1:1 parent is one comparison: one mixed child, or a pure record on
// each side.
func (sc *splitScratch) split(in *level, memo []int32, srcCodes, tgtCodes []int32, out *level) (pureS, pureT int) {
	slots := sc.slots
	// The children of one parent: members per child, then the next slot
	// of each mixed child in out, or -1 for a pure child.
	cntS, cntT := sc.cntS, sc.cntT
	src, tgt := resize(out.src, len(in.src)), resize(out.tgt, len(in.tgt))
	srcEnd, tgtEnd := out.srcEnd[:0], out.tgtEnd[:0]
	nS, nT := int32(0), int32(0)
	s, t := int32(0), int32(0)
	for b := range in.srcEnd {
		bs, bt := in.src[s:in.srcEnd[b]], in.tgt[t:in.tgtEnd[b]]
		s, t = in.srcEnd[b], in.tgtEnd[b]
		if len(bs) == 1 && len(bt) == 1 {
			if memo[srcCodes[bs[0]]] == tgtCodes[bt[0]] {
				src[nS], tgt[nT] = bs[0], bt[0]
				nS, nT = nS+1, nT+1
				srcEnd, tgtEnd = append(srcEnd, nS), append(tgtEnd, nT)
			} else {
				pureS, pureT = pureS+1, pureT+1
			}
			continue
		}
		epoch := sc.next()
		cntS, cntT = cntS[:0], cntT[:0]
		for _, rec := range bs {
			p := &slots[memo[srcCodes[rec]]]
			if p.epoch != epoch {
				p.epoch, p.val = epoch, int32(len(cntS))
				cntS, cntT = append(cntS, 0), append(cntT, 0)
			}
			cntS[p.val]++
		}
		for _, rec := range bt {
			p := &slots[tgtCodes[rec]]
			if p.epoch != epoch {
				p.epoch, p.val = epoch, int32(len(cntS))
				cntS, cntT = append(cntS, 0), append(cntT, 0)
			}
			cntT[p.val]++
		}
		mixed := false
		for c := range cntS {
			if cntS[c] > 0 && cntT[c] > 0 {
				cntS[c], nS = nS, nS+cntS[c]
				cntT[c], nT = nT, nT+cntT[c]
				srcEnd, tgtEnd = append(srcEnd, nS), append(tgtEnd, nT)
				mixed = true
			} else {
				pureS += int(cntS[c])
				pureT += int(cntT[c])
				cntS[c] = -1
			}
		}
		if !mixed {
			continue
		}
		for _, rec := range bs {
			if c := slots[memo[srcCodes[rec]]].val; cntS[c] >= 0 {
				src[cntS[c]] = rec
				cntS[c]++
			}
		}
		for _, rec := range bt {
			if c := slots[tgtCodes[rec]].val; cntS[c] >= 0 {
				tgt[cntT[c]] = rec
				cntT[c]++
			}
		}
	}
	*out = level{src: src[:nS], tgt: tgt[:nT], srcEnd: srcEnd, tgtEnd: tgtEnd}
	sc.cntS, sc.cntT = cntS, cntT
	return pureS, pureT
}

// clone returns a copy of lv in arrays of exactly its size.
func (lv *level) clone() level {
	return level{
		src:    append([]int32(nil), lv.src...),
		tgt:    append([]int32(nil), lv.tgt...),
		srcEnd: append([]int32(nil), lv.srcEnd...),
		tgtEnd: append([]int32(nil), lv.tgtEnd...),
	}
}

// resize returns a slice of length n, reusing buf's array when it is large
// enough and allocating exactly n otherwise.
func resize(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// bySourceSize returns the indices of lv's blocks ordered by decreasing
// source size: a counting sort, linear in the blocks and the largest one.
func (sc *splitScratch) bySourceSize(lv *level) []int32 {
	n := len(lv.srcEnd)
	size := func(i int) int { src, _ := lv.block(i); return len(src) }
	largest := 0
	for i := range n {
		largest = max(largest, size(i))
	}
	// start[largest − size] first counts, then places, the blocks of each size.
	start := sc.cntS[:0]
	for range largest + 1 {
		start = append(start, 0)
	}
	for i := range n {
		start[largest-size(i)]++
	}
	off := int32(0)
	for i, c := range start {
		start[i] = off
		off += c
	}
	order := resize(sc.order, n)
	for i := range n {
		j := largest - size(i)
		order[start[j]] = int32(i)
		start[j]++
	}
	sc.cntS, sc.order = start, order
	return order
}
