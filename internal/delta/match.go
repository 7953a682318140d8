package delta

import (
	"context"
	"encoding/binary"
	"runtime"
	"sync"

	"affidavit/internal/spill"
)

// The greedy multiset matching of Proposition 3.6 interacts only within
// equal keys: source record s (in source order) claims the earliest
// unclaimed target record whose code tuple equals s's image tuple. Keys
// therefore partition the problem — the claim order for key K depends only
// on the sources whose image is K and the targets whose tuple is K, each in
// their own record order. match routes every record to a partition by a
// hash of its (image) code tuple, which keeps all records that could ever
// match together; each partition replays the greedy order on its own keys,
// and the union of the partition matchings is the one-partition matching —
// byte-identical explanations for any partition count, worker count and
// member store.

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
// code leaves the snapshot value set (such a source can never match).
func hashImg(co *Coded, memos [][]int32, s int) (h uint64, ok bool) {
	h = fnvOffset64
	for a := range co.Src {
		c := imageCode(co, memos, a, s)
		if c < 0 {
			return 0, false
		}
		h = (h ^ uint64(uint32(c))) * fnvPrime64
	}
	return h, true
}

// matchEstimate is what one in-memory matching allocates beyond its
// result: newTupleIndex's three slot arrays (the power of two ≥ 2·nTgt
// int32s each) and its link array, plus the partitions' member lists.
func matchEstimate(nSrc, nTgt int) int64 {
	return 4 * int64(3*indexSlots(nTgt)+nTgt+nSrc+nTgt)
}

// members stores the partitions' record lists, targets of partition p at
// p and its sources at parts+p: in memory, or — under a memory budget — as
// 4-byte record indices in a spill.Pager. Everything else about the
// matching is the same for both stores.
type members struct {
	lists [][]int32
	pager *spill.Pager // nil = in memory
}

func (m *members) add(list int, rec int32) error {
	if m.pager == nil {
		m.lists[list] = append(m.lists[list], rec)
		return nil
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(rec))
	return m.pager.Write(list, b[:])
}

// load returns one list, ascending (the order add saw).
func (m *members) load(list int) ([]int32, error) {
	if m.pager == nil {
		return m.lists[list], nil
	}
	var recs []int32
	err := m.pager.ReadPart(list, func(b []byte) error {
		recs = append(recs, int32(binary.LittleEndian.Uint32(b)))
		return nil
	})
	return recs, err
}

// match runs the greedy multiset matching: matchOf[s] is the target record
// claimed by source s, or −1 when s is deleted. The partition count is
// computed, never configured: one partition — no routing, no member lists —
// unless workers > 1 (one per usable core, for load balance) or the
// estimate exceeds the budget's share (partitions sized so that one fits
// it, member lists on disk, matched one at a time: a budget is paid in
// parallelism too, and the spilled partition count stays independent of
// workers). In memory up to workers partitions match at a time; each writes
// only its own sources' entries of matchOf. A non-nil error is ctx's or the
// pager's.
func match(ctx context.Context, inst *Instance, co *Coded, memos [][]int32, workers int, sm *spill.Manager, st *spill.Stats) ([]int32, error) {
	nSrc, nTgt := inst.Source.Len(), inst.Target.Len()
	matchOf := make([]int32, nSrc)
	for s := range matchOf {
		matchOf[s] = -1
	}

	// In memory the count only balances load: partitions beyond the core
	// count or the key-bearing record count are pure overhead.
	parts, mem := max(1, min(workers, runtime.GOMAXPROCS(0), nTgt/2+1)), members{}
	if est := matchEstimate(nSrc, nTgt); sm.ShouldSpillMatch(est) {
		// One partition fits the share, so only one may be resident.
		parts, workers = sm.MatchPartitions(est), 1
		pager, err := sm.NewPager(2*parts, 4, st)
		if err != nil {
			return nil, err
		}
		defer pager.Close()
		mem.pager = pager
	} else if parts > 1 {
		mem.lists = make([][]int32, 2*parts)
	}

	if parts > 1 {
		// Route in ascending record order — the order each partition's
		// greedy matching must replay. The partition comes from the hash's
		// high half (scaled onto [0, parts)), the index slot from its low
		// half.
		w := uint64(parts)
		for t := 0; t < nTgt; t++ {
			if t&buildCancelMask == 0 && ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if err := mem.add(int(hashTgt(co, t)>>32*w>>32), int32(t)); err != nil {
				return nil, err
			}
		}
		for s := 0; s < nSrc; s++ {
			if s&buildCancelMask == 0 && ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if h, ok := hashImg(co, memos, s); ok {
				if err := mem.add(parts+int(h>>32*w>>32), int32(s)); err != nil {
					return nil, err
				}
			}
		}
		if mem.pager != nil {
			if err := mem.pager.Flush(); err != nil {
				return nil, err
			}
		}
	}

	err := forEach(parts, workers, func(p int) error {
		var tgts, srcs []int32 // nil = every record
		nT, nS := nTgt, nSrc
		if parts > 1 {
			var err error
			if tgts, err = mem.load(p); err != nil {
				return err
			}
			if srcs, err = mem.load(parts + p); err != nil {
				return err
			}
			nT, nS = len(tgts), len(srcs)
		}
		// Multiset index of the partition's unclaimed targets.
		free := newTupleIndex(co, tgts, nT)
		for i := 0; i < nT; i++ {
			if i&buildCancelMask == 0 && ctx.Err() != nil {
				return ctx.Err()
			}
			free.insert(int32(i), hashTgt(co, int(free.rec(int32(i)))))
		}
		for i := 0; i < nS; i++ {
			if i&buildCancelMask == 0 && ctx.Err() != nil {
				return ctx.Err()
			}
			s := i
			if srcs != nil {
				s = int(srcs[i])
			}
			if h, ok := hashImg(co, memos, s); ok {
				matchOf[s] = free.take(memos, s, h)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return matchOf, nil
}

// forEach runs fn(0) … fn(n−1), up to workers calls at a time, and returns
// the first error. With workers ≤ 1 it runs inline and stops at an error.
func forEach(n, workers int, fn func(i int) error) error {
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	sem := make(chan struct{}, workers)
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer func() {
				<-sem
				wg.Done()
			}()
			if err := fn(i); err != nil {
				mu.Lock()
				if first == nil {
					first = err
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	return first
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
	co     *Coded
	d      int
	bucket []int32 // position → target record; nil = identity (position IS the record)
	rep    []int32 // slot → position of the bucket's representative; -1 = empty slot
	head   []int32 // slot → position of the first unclaimed target; -1 = exhausted
	tail   []int32
	next   []int32 // position → next position with an equal tuple; -1 = end
	mask   uint32
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

// newTupleIndex sizes the index for n targets; bucket maps positions to
// target records (nil when positions are the records themselves).
func newTupleIndex(co *Coded, bucket []int32, n int) *tupleIndex {
	size := indexSlots(n)
	m := &tupleIndex{
		co:     co,
		d:      len(co.Tgt),
		bucket: bucket,
		rep:    make([]int32, size),
		head:   make([]int32, size),
		tail:   make([]int32, size),
		next:   make([]int32, n),
		mask:   uint32(size - 1),
	}
	for i := range m.rep {
		m.rep[i] = -1
	}
	return m
}

func (m *tupleIndex) rec(pos int32) int32 {
	if m.bucket == nil {
		return pos
	}
	return m.bucket[pos]
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

// insert appends position pos to its tuple's bucket. h must be hashTgt of
// the position's record.
func (m *tupleIndex) insert(pos int32, h uint64) {
	t := m.rec(pos)
	m.next[pos] = -1
	i := uint32(h) & m.mask
	for {
		r := m.rep[i]
		if r < 0 {
			m.rep[i], m.head[i], m.tail[i] = pos, pos, pos
			return
		}
		if m.equalTgt(m.rec(r), t) {
			m.next[m.tail[i]] = pos
			m.tail[i] = pos
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
		if m.equalImg(m.rec(r), memos, s) {
			hd := m.head[i]
			if hd < 0 {
				return -1
			}
			m.head[i] = m.next[hd]
			return m.rec(hd)
		}
		i = (i + 1) & m.mask
	}
}
