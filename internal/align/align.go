// Package align provides the record-alignment primitives the search builds
// on: random alignments that respect a blocking result, greedy value
// mappings induced from an alignment (the Hд probe of Algorithm 1 and the
// ⊡-resolution step of Finalize), and the overlap-score a-priori matcher
// that determines the Hs start state (Section 4.2).
package align

import (
	"math/bits"
	"math/rand"
	"sort"

	"affidavit/internal/blocking"
	"affidavit/internal/delta"
	"affidavit/internal/metafunc"
)

// Pair aligns source record S with target record T.
type Pair struct {
	S, T int32
}

// Random samples a random alignment of all records that respects Φ_H: in
// each block, min(|ϕS|, |ϕT|) pairs are drawn uniformly without
// replacement.
func Random(r *blocking.Result, rng *rand.Rand) []Pair {
	var sc Scratch
	return sc.Random(r, rng)
}

// Scratch holds what one run reuses across its Random samples and GreedyMap
// probes: the shuffle buffers, the pair list and the greedy-map table. A
// Scratch belongs to one run, on one goroutine; the alignment Random
// returns aliases it and is valid until the next Random call on it.
type Scratch struct {
	pairs    []Pair
	src, tgt []int32
	greedy   greedyScratch
}

// Random is the buffer-reusing form of the package-level Random; it draws
// from rng in exactly the same sequence.
func (sc *Scratch) Random(r *blocking.Result, rng *rand.Rand) []Pair {
	pairs := sc.pairs[:0]
	for i := range r.NumMixed() {
		bs, bt := r.Mixed(i)
		if len(bs) == 1 && len(bt) == 1 {
			// Shuffling one record draws nothing: the block is its pair.
			pairs = append(pairs, Pair{S: bs[0], T: bt[0]})
			continue
		}
		n := min(len(bs), len(bt))
		src := append(sc.src[:0], bs...)
		tgt := append(sc.tgt[:0], bt...)
		rng.Shuffle(len(src), func(i, j int) { src[i], src[j] = src[j], src[i] })
		rng.Shuffle(len(tgt), func(i, j int) { tgt[i], tgt[j] = tgt[j], tgt[i] })
		for i := 0; i < n; i++ {
			pairs = append(pairs, Pair{S: src[i], T: tgt[i]})
		}
		sc.src, sc.tgt = src, tgt // keep grown capacity for the next block
	}
	sc.pairs = pairs
	return pairs
}

// GreedyMap builds a value mapping for attribute attr from an alignment:
// each source value maps to the target value it co-occurs with most often.
// Ties break deterministically towards the lexicographically smaller target
// value so that equal seeds give equal searches.
//
// Everything runs on interned value codes: co-occurrences are counted in a
// flat pair table, the best target per source code is kept in dense
// arrays, and the result is a coded mapping whose entry strings are built
// only if someone reads them. Tie-breaking compares the underlying strings
// (code order is not deterministic).
func GreedyMap(inst *delta.Instance, pairs []Pair, attr int) *metafunc.Mapping {
	var sc Scratch
	return sc.GreedyMap(inst, pairs, attr)
}

// GreedyMap is the table-reusing form of the package-level GreedyMap; its
// mapping does not alias sc.
func (sc *Scratch) GreedyMap(inst *delta.Instance, pairs []Pair, attr int) *metafunc.Mapping {
	coded := inst.Coded()
	srcCodes, tgtCodes := coded.Src[attr], coded.Tgt[attr]
	dict := coded.Dicts[attr]
	g := &sc.greedy
	g.reset(len(pairs), int(coded.Base[attr]))
	for _, p := range pairs {
		g.count(uint64(uint32(srcCodes[p.S]))<<32 | uint64(uint32(tgtCodes[p.T])))
	}
	from, to := g.best(dict.Snapshot())
	return metafunc.NewCodedMapping(dict, from, to)
}

// greedyScratch is GreedyMap's working set: an open-addressing table
// counting (source code, target code) pairs packed into 64 bits, and dense
// per-source-code arrays for the running argmax. bestN is all zero between
// calls (best clears the entries it set), so only the pair table is
// cleared per call.
type greedyScratch struct {
	keys  []uint64 // pair+1; 0 = empty
	cnts  []int32
	shift uint // 64 − log2(len(keys))
	bestN []int32
	bestT []int32
	from  []int32 // source codes in first-seen slot order
}

// reset sizes the pair table for n pairs at load ≤ 1/2 — exactly, so slot
// order never depends on an earlier call — and the argmax arrays for
// source codes below base.
func (sc *greedyScratch) reset(n, base int) {
	size := 16
	for size < 2*n {
		size *= 2
	}
	if cap(sc.keys) < size {
		sc.keys = make([]uint64, size)
		sc.cnts = make([]int32, size)
	} else {
		sc.keys, sc.cnts = sc.keys[:size], sc.cnts[:size]
		clear(sc.keys)
	}
	sc.shift = uint(64 - bits.TrailingZeros(uint(size)))
	if len(sc.bestN) < base {
		sc.bestN = make([]int32, base)
		sc.bestT = make([]int32, base)
	}
	sc.from = sc.from[:0]
}

// best returns each counted source code with its most frequent target
// code, breaking count ties towards the smaller target string in vals, and
// clears bestN for the next call. Slot order is a function of the
// pairs alone, and the argmax has a total tie-break, so the entries do not
// depend on it either.
func (sc *greedyScratch) best(vals []string) (from, to []int32) {
	for i, k := range sc.keys {
		if k == 0 {
			continue
		}
		s, t, n := int32((k-1)>>32), int32(uint32(k-1)), sc.cnts[i]
		switch cur := sc.bestN[s]; {
		case cur == 0:
			sc.from = append(sc.from, s)
		case n < cur || n == cur && vals[t] > vals[sc.bestT[s]]:
			continue
		}
		sc.bestN[s], sc.bestT[s] = n, t
	}
	from = append([]int32(nil), sc.from...)
	to = make([]int32, len(from))
	for i, s := range from {
		to[i] = sc.bestT[s]
		sc.bestN[s] = 0
	}
	return from, to
}

// count adds one occurrence of pair k. The table never fills past half, so
// an empty slot is always found.
func (sc *greedyScratch) count(k uint64) {
	mask := len(sc.keys) - 1
	for i := int((k * 0x9E3779B97F4A7C15) >> sc.shift); ; i = (i + 1) & mask {
		switch sc.keys[i] {
		case 0:
			sc.keys[i], sc.cnts[i] = k+1, 1
			return
		case k + 1:
			sc.cnts[i]++
			return
		}
	}
}

// Overlap holds the a-priori matching of Section 4.2: for every source
// record the target record with the highest attribute-overlap score.
type Overlap struct {
	// BestPairs[i] pairs source i with its best target; sources that share
	// no (sufficiently rare) value with any target are absent.
	BestPairs []Pair
	// Scores[i] is the overlap score of BestPairs[i].
	Scores []int
}

// ComputeOverlap scores record pairs by counting attributes on which they
// agree, considering only pairs that share at least one value whose
// source-group × target-group product does not exceed maxPairs (the paper's
// configurable block-size threshold; Section 4.2 uses 100000). Each source
// keeps its best-scoring target, ties going to the smaller target index.
//
// Sources are scored one at a time against per-attribute postings of the
// target records, in a dense score array over the targets that is reset
// entry by entry after each source. Beyond the result, memory is the
// postings (one int32 per target record and per code, per attribute) plus
// one int32 per target: linear in the instance, whatever the number of
// scored pairs.
func ComputeOverlap(inst *delta.Instance, maxPairs int) *Overlap {
	coded := inst.Coded()
	var maxBase int32
	for _, b := range coded.Base {
		maxBase = max(maxBase, b)
	}
	srcN := make([]int32, maxBase)
	post := make([]postings, inst.NumAttrs())
	for a := range post {
		post[a] = newPostings(coded.Src[a], coded.Tgt[a], srcN[:coded.Base[a]], maxPairs)
	}
	score := make([]int32, inst.Target.Len())
	var touched []int32
	ov := &Overlap{}
	for s := 0; s < inst.Source.Len(); s++ {
		for a, p := range post {
			c := coded.Src[a][s]
			for _, t := range p.tgts[p.off[c]:p.off[c+1]] {
				if score[t] == 0 {
					touched = append(touched, t)
				}
				score[t]++
			}
		}
		if len(touched) == 0 {
			continue
		}
		best := touched[0]
		for _, t := range touched[1:] {
			if score[t] > score[best] || score[t] == score[best] && t < best {
				best = t
			}
		}
		ov.BestPairs = append(ov.BestPairs, Pair{S: int32(s), T: best})
		ov.Scores = append(ov.Scores, int(score[best]))
		for _, t := range touched {
			score[t] = 0
		}
		touched = touched[:0]
	}
	return ov
}

// postings lists one attribute's target records by code in CSR form: the
// targets holding code c are tgts[off[c]:off[c+1]], ascending. A code whose
// value is missing from either snapshot, or too frequent to score, gets an
// empty range.
type postings struct {
	off  []int32
	tgts []int32
}

// newPostings builds one attribute's postings over the codes below
// len(srcN), using srcN as scratch for the source group sizes.
func newPostings(src, tgt, srcN []int32, maxPairs int) postings {
	base := len(srcN)
	clear(srcN)
	for _, c := range src {
		srcN[c]++
	}
	off := make([]int32, base+1)
	for _, c := range tgt {
		off[c+1]++
	}
	for c := 0; c < base; c++ {
		n := off[c+1]
		if srcN[c] == 0 || int64(srcN[c])*int64(n) > int64(maxPairs) {
			n = 0 // absent from the source, or too frequent a value
		}
		off[c+1] = off[c] + n
		srcN[c] = off[c] // now the fill cursor
	}
	tgts := make([]int32, off[base])
	for t, c := range tgt {
		if i := srcN[c]; i < off[c+1] {
			tgts[i] = int32(t)
			srcN[c]++
		}
	}
	return postings{off: off, tgts: tgts}
}

// StartAttrs selects A^id for the Hs start state: k′ is the modal overlap
// score among the best pairs, and the k′ attributes whose values overlap
// most frequently on those pairs are assumed unchanged. Returns nil when no
// pairs scored (the caller then falls back to the all-undecided state).
func (ov *Overlap) StartAttrs(inst *delta.Instance) []int {
	if len(ov.BestPairs) == 0 {
		return nil
	}
	freq := make(map[int]int)
	for _, sc := range ov.Scores {
		freq[sc]++
	}
	kPrime, bestN := 0, -1
	//affidavit:ordered argmax with a total tie-break (frequency, then larger score); result is independent of visit order
	for sc, n := range freq {
		if n > bestN || (n == bestN && sc > kPrime) {
			kPrime, bestN = sc, n
		}
	}
	if kPrime > inst.NumAttrs() {
		kPrime = inst.NumAttrs()
	}
	if kPrime == 0 {
		return nil
	}
	coded := inst.Coded()
	overlapCount := make([]int, inst.NumAttrs())
	for _, p := range ov.BestPairs {
		for a := 0; a < inst.NumAttrs(); a++ {
			if coded.Src[a][p.S] == coded.Tgt[a][p.T] {
				overlapCount[a]++
			}
		}
	}
	order := make([]int, inst.NumAttrs())
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return overlapCount[order[i]] > overlapCount[order[j]]
	})
	attrs := append([]int(nil), order[:kPrime]...)
	sort.Ints(attrs)
	return attrs
}
