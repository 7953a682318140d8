package delta

import "context"

// fnv1a64 constants for hashing code tuples.
const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

// buildCancelMask is how many records each matching loop scans between
// context checks.
const buildCancelMask = 8192 - 1

// hashTgt hashes target record t's code tuple (fnv1a over the codes).
func hashTgt(co *Coded, t int) uint64 {
	h := uint64(fnvOffset64)
	for _, col := range co.Tgt {
		h = (h ^ uint64(uint32(col[t]))) * fnvPrime64
	}
	return h
}

// hashImg hashes source record s's image tuple; ok is false when any image
// code is ≥ Base — a function output interned after both snapshots, so no
// target value — and such a source can never match.
func hashImg(co *Coded, memos [][]int32, s int) (h uint64, ok bool) {
	h = fnvOffset64
	for a := range co.Src {
		c := imageCode(co, memos, a, s)
		if c >= co.Base[a] {
			return 0, false
		}
		h = (h ^ uint64(uint32(c))) * fnvPrime64
	}
	return h, true
}

// match runs the greedy multiset matching of Proposition 3.6: source record
// s (in source order) claims the earliest unclaimed target record whose
// code tuple equals s's image tuple. matchOf[s] is the target record
// claimed by source s, or −1 when s is deleted. A non-nil error is ctx's.
func match(ctx context.Context, inst *Instance, co *Coded, memos [][]int32) ([]int32, error) {
	nSrc, nTgt := inst.Source.Len(), inst.Target.Len()
	matchOf := make([]int32, nSrc)
	for s := range matchOf {
		matchOf[s] = -1
	}

	// Multiset index of the unclaimed targets.
	free := newTupleIndex(co, nTgt)
	for t := 0; t < nTgt; t++ {
		if t&buildCancelMask == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		free.insert(int32(t), hashTgt(co, t))
	}
	for s := 0; s < nSrc; s++ {
		if s&buildCancelMask == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if h, ok := hashImg(co, memos, s); ok {
			matchOf[s] = free.take(memos, s, h)
		}
	}
	return matchOf, nil
}

// tupleIndex is the open-addressing multiset index behind the greedy
// matching: target records keyed by their code tuples, each bucket an
// arrival-ordered list of the targets sharing one tuple. Keys stay as the
// int32 code columns they already are, bucket membership is verified by
// comparing a bucket representative's codes elementwise, and list links
// live in one flat next array, so indexing a snapshot allocates four flat
// arrays rather than a string key plus map and slice overhead per distinct
// tuple.
type tupleIndex struct {
	co   *Coded
	d    int
	rep  []int32 // slot → the bucket's representative target; -1 = empty slot
	head []int32 // slot → the first unclaimed target; -1 = exhausted
	tail []int32
	next []int32 // target → next target with an equal tuple; -1 = end
	mask uint32
}

// indexSlots is the slot count of an index over n targets: the power of
// two ≥ 2·n (load factor ≤ ½), at least 16.
func indexSlots(n int) int {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	return size
}

// newTupleIndex sizes the index for n targets.
func newTupleIndex(co *Coded, n int) *tupleIndex {
	size := indexSlots(n)
	m := &tupleIndex{
		co:   co,
		d:    len(co.Tgt),
		rep:  make([]int32, size),
		head: make([]int32, size),
		tail: make([]int32, size),
		next: make([]int32, n),
		mask: uint32(size - 1),
	}
	for i := range m.rep {
		m.rep[i] = -1
	}
	return m
}

func (m *tupleIndex) equalTgt(t1, t2 int32) bool {
	for a := 0; a < m.d; a++ {
		if m.co.Tgt[a][t1] != m.co.Tgt[a][t2] {
			return false
		}
	}
	return true
}

func (m *tupleIndex) equalImg(t int32, memos [][]int32, s int) bool {
	for a := 0; a < m.d; a++ {
		if m.co.Tgt[a][t] != imageCode(m.co, memos, a, s) {
			return false
		}
	}
	return true
}

// insert appends target t to its tuple's bucket. h must be hashTgt(t).
func (m *tupleIndex) insert(t int32, h uint64) {
	m.next[t] = -1
	i := uint32(h) & m.mask
	for {
		r := m.rep[i]
		if r < 0 {
			m.rep[i], m.head[i], m.tail[i] = t, t, t
			return
		}
		if m.equalTgt(r, t) {
			m.next[m.tail[i]] = t
			m.tail[i] = t
			return
		}
		i = (i + 1) & m.mask
	}
}

// take claims and returns the earliest unclaimed target whose tuple equals
// source s's image tuple under memos, or -1. h must be s's image hash.
func (m *tupleIndex) take(memos [][]int32, s int, h uint64) int32 {
	i := uint32(h) & m.mask
	for {
		r := m.rep[i]
		if r < 0 {
			return -1
		}
		if m.equalImg(r, memos, s) {
			hd := m.head[i]
			if hd < 0 {
				return -1
			}
			m.head[i] = m.next[hd]
			return hd
		}
		i = (i + 1) & m.mask
	}
}
