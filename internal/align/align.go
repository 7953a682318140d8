// Package align provides the record-alignment primitives the search builds
// on: random alignments that respect a blocking result, greedy value
// mappings induced from an alignment (the Hд probe of Algorithm 1 and the
// ⊡-resolution step of Finalize), and the overlap-score a-priori matcher
// that determines the Hs start state (Section 4.2).
package align

import (
	"encoding/binary"
	"math/bits"
	"math/rand"
	"sort"
	"sync"

	"affidavit/internal/blocking"
	"affidavit/internal/delta"
	"affidavit/internal/metafunc"
	"affidavit/internal/spill"
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

// Scratch holds the shuffle buffers and pair list one caller reuses across
// Random samples. A Scratch belongs to a single goroutine; the returned
// alignment aliases it and is valid until the next Random call on it.
type Scratch struct {
	pairs    []Pair
	src, tgt []int32
}

// Random is the buffer-reusing form of the package-level Random; it draws
// from rng in exactly the same sequence.
func (sc *Scratch) Random(r *blocking.Result, rng *rand.Rand) []Pair {
	pairs := sc.pairs[:0]
	for _, b := range r.MixedBlocks() {
		n := len(b.Src)
		if len(b.Tgt) < n {
			n = len(b.Tgt)
		}
		src := append(sc.src[:0], b.Src...)
		tgt := append(sc.tgt[:0], b.Tgt...)
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
	coded := inst.Coded()
	srcCodes, tgtCodes := coded.Src[attr], coded.Tgt[attr]
	dict := coded.Dicts[attr]
	sc := greedyPool.Get().(*greedyScratch)
	sc.reset(len(pairs), int(coded.Base[attr]))
	for _, p := range pairs {
		sc.count(uint64(uint32(srcCodes[p.S]))<<32 | uint64(uint32(tgtCodes[p.T])))
	}
	from, to := sc.best(dict.Snapshot())
	greedyPool.Put(sc)
	return metafunc.NewCodedMapping(dict, from, to)
}

// greedyScratch is GreedyMap's pooled working set: an open-addressing
// table counting (source code, target code) pairs packed into 64 bits, and
// dense per-source-code arrays for the running argmax. bestN is all zero
// between borrows (best clears the entries it set), so only the pair
// table is cleared per call.
type greedyScratch struct {
	keys  []uint64 // pair+1; 0 = empty
	cnts  []int32
	shift uint // 64 − log2(len(keys))
	bestN []int32
	bestT []int32
	from  []int32 // source codes in first-seen slot order
}

var greedyPool = sync.Pool{New: func() any { return new(greedyScratch) }}

// reset sizes the pair table for n pairs at load ≤ 1/2 — exactly, so slot
// order never depends on an earlier borrower — and the argmax arrays for
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
// clears bestN for the next borrower. Slot order is a function of the
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
// configurable block-size threshold; Section 4.2 uses 100000).
func ComputeOverlap(inst *delta.Instance, maxPairs int) *Overlap {
	return ComputeOverlapSpill(inst, maxPairs, nil, nil)
}

// overlapEntryBytes approximates one score-table entry: an int64 key, an
// int32 count and the map bucket overhead around them.
const overlapEntryBytes = 24

// ComputeOverlapSpill is ComputeOverlap under a memory budget: when the
// estimated score table blows the manager's group share, candidate pair
// keys are partitioned to disk by source record (grace-hash, like the
// external grouping mode) and each partition is counted and arg-maxed
// separately — per-source results are independent across partitions, so
// the overlap is byte-identical to the in-memory path. Disk trouble
// falls back to the in-memory computation: the budget is advisory, the
// result is not.
func ComputeOverlapSpill(inst *delta.Instance, maxPairs int, m *spill.Manager, st *spill.Stats) *Overlap {
	if m.Active() {
		if est := overlapEstimate(inst, maxPairs); m.ShouldSpillGroup(est) {
			if ov := computeOverlapExternal(inst, maxPairs, est, m, st); ov != nil {
				return ov
			}
		}
	}
	nT := inst.Target.Len()
	coded := inst.Coded()
	scores := make(map[int64]int32)
	for a := 0; a < inst.NumAttrs(); a++ {
		srcByVal, tgtByVal := overlapGroups(coded, a)
		for v, ss := range srcByVal {
			ts := tgtByVal[v]
			if len(ss) == 0 || len(ts) == 0 {
				continue
			}
			if len(ss)*len(ts) > maxPairs {
				continue // too frequent a value: skip this overlap
			}
			for _, s := range ss {
				base := int64(s) * int64(nT)
				for _, t := range ts {
					scores[base+int64(t)]++
				}
			}
		}
	}
	acc := newOverlapAccum(nT)
	acc.fold(scores)
	return acc.finish()
}

// overlapGroups groups both snapshots' records for attribute a by
// interned code: raw snapshot codes are dense in [0, Base[a]), so plain
// slices replace the string-keyed maps.
func overlapGroups(coded *delta.Coded, a int) (srcByVal, tgtByVal [][]int32) {
	srcByVal = make([][]int32, coded.Base[a])
	for s, c := range coded.Src[a] {
		srcByVal[c] = append(srcByVal[c], int32(s))
	}
	tgtByVal = make([][]int32, coded.Base[a])
	for t, c := range coded.Tgt[a] {
		tgtByVal[c] = append(tgtByVal[c], int32(t))
	}
	return srcByVal, tgtByVal
}

// overlapEstimate upper-bounds the in-memory score table: the sum of
// per-value group products that survive the maxPairs cut, costed per
// entry. Counting group sizes is cheap — no pair is enumerated.
func overlapEstimate(inst *delta.Instance, maxPairs int) int64 {
	coded := inst.Coded()
	var total int64
	for a := 0; a < inst.NumAttrs(); a++ {
		srcN := make([]int32, coded.Base[a])
		for _, c := range coded.Src[a] {
			srcN[c]++
		}
		tgtN := make([]int32, coded.Base[a])
		for _, c := range coded.Tgt[a] {
			tgtN[c]++
		}
		for v := range srcN {
			p := int64(srcN[v]) * int64(tgtN[v])
			if p > 0 && p <= int64(maxPairs) {
				total += p
			}
		}
	}
	return total * overlapEntryBytes
}

// computeOverlapExternal runs the score count out of core: pair keys are
// written to grace-hash partitions keyed by source record, then each
// partition is replayed into a small map and folded into the global
// argmax. Returns nil on any pager error (caller falls back in-memory).
func computeOverlapExternal(inst *delta.Instance, maxPairs int, est int64, m *spill.Manager, st *spill.Stats) *Overlap {
	nT := inst.Target.Len()
	coded := inst.Coded()
	parts := m.GroupPartitions(est)
	pg, err := m.NewPager(parts, 8, st)
	if err != nil {
		return nil
	}
	defer pg.Close()
	var rec [8]byte
	for a := 0; a < inst.NumAttrs(); a++ {
		srcByVal, tgtByVal := overlapGroups(coded, a)
		for v, ss := range srcByVal {
			ts := tgtByVal[v]
			if len(ss) == 0 || len(ts) == 0 {
				continue
			}
			if len(ss)*len(ts) > maxPairs {
				continue
			}
			for _, s := range ss {
				base := int64(s) * int64(nT)
				part := int(uint32(s) % uint32(parts))
				for _, t := range ts {
					binary.LittleEndian.PutUint64(rec[:], uint64(base+int64(t)))
					if pg.Write(part, rec[:]) != nil {
						return nil
					}
				}
			}
		}
	}
	if pg.Flush() != nil {
		return nil
	}
	acc := newOverlapAccum(nT)
	scores := make(map[int64]int32)
	for part := 0; part < parts; part++ {
		clear(scores)
		err := pg.ReadPart(part, func(b []byte) error {
			scores[int64(binary.LittleEndian.Uint64(b))]++
			return nil
		})
		if err != nil {
			return nil
		}
		// Every key for one source record hashes to the same partition, so
		// folding partitions one at a time reaches the same argmax as one
		// big table.
		acc.fold(scores)
	}
	return acc.finish()
}

// overlapAccum folds score tables into the per-source argmax and
// assembles the final Overlap. Both the in-memory and external paths end
// here, which is what keeps them byte-identical.
type overlapAccum struct {
	nT        int
	best      map[int32]Pair
	bestScore map[int32]int32
}

func newOverlapAccum(nT int) *overlapAccum {
	return &overlapAccum{
		nT:        nT,
		best:      make(map[int32]Pair),
		bestScore: make(map[int32]int32),
	}
}

// fold merges one score table into the running argmax.
func (acc *overlapAccum) fold(scores map[int64]int32) {
	//affidavit:ordered argmax with a total tie-break (score, then smaller target index); result is independent of visit order
	for key, sc := range scores {
		s := int32(key / int64(acc.nT))
		t := int32(key % int64(acc.nT))
		cur, seen := acc.bestScore[s]
		// Deterministic tie-break towards the smaller target index.
		if !seen || sc > cur || (sc == cur && t < acc.best[s].T) {
			acc.bestScore[s] = sc
			acc.best[s] = Pair{S: s, T: t}
		}
	}
}

// finish sorts the argmax by source record into the Overlap.
func (acc *overlapAccum) finish() *Overlap {
	ov := &Overlap{}
	srcs := make([]int32, 0, len(acc.best))
	for s := range acc.best {
		srcs = append(srcs, s)
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
	for _, s := range srcs {
		ov.BestPairs = append(ov.BestPairs, acc.best[s])
		ov.Scores = append(ov.Scores, int(acc.bestScore[s]))
	}
	return ov
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
