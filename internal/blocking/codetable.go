package blocking

import (
	"math/bits"
	"sync"
)

// codeTable is an open-addressing map from non-negative int32 split codes
// to int32 sub-block indices, replacing map[int32]int32 in the refinement
// hot path. Keys are stored as code+1 so the zero value marks an empty slot
// and a full reset is a memclr; inserted slot positions are additionally
// tracked so resetting a sparsely used table touches only the dirty slots
// instead of the whole backing array (many tiny parent blocks late in a
// search would otherwise pay a full clear each).
type codeTable struct {
	keys    []int32 // code+1; 0 = empty
	vals    []int32
	touched []uint32 // slot positions of live entries
	mask    uint32
	n       int
}

// getOrInsert returns the value stored for code c; on first sight it stores
// val and returns it. found reports whether c was already present.
func (t *codeTable) getOrInsert(c, val int32) (idx int32, found bool) {
	if 4*(t.n+1) > 3*len(t.keys) {
		t.grow()
	}
	k := c + 1
	i := (uint32(c) * 0x9E3779B9) & t.mask
	for {
		switch t.keys[i] {
		case 0:
			t.keys[i] = k
			t.vals[i] = val
			t.touched = append(t.touched, i)
			t.n++
			return val, false
		case k:
			return t.vals[i], true
		}
		i = (i + 1) & t.mask
	}
}

// grow doubles the table (min 16 slots) and rehashes live entries.
func (t *codeTable) grow() {
	size := 2 * len(t.keys)
	if size < 16 {
		size = 16
	}
	keys := make([]int32, size)
	vals := make([]int32, size)
	touched := t.touched[:0]
	if cap(touched) < t.n {
		touched = make([]uint32, 0, size)
	}
	mask := uint32(size - 1)
	for _, i := range t.touched {
		k := t.keys[i]
		j := (uint32(k-1) * 0x9E3779B9) & mask
		for keys[j] != 0 {
			j = (j + 1) & mask
		}
		keys[j] = k
		vals[j] = t.vals[i]
		touched = append(touched, j)
	}
	t.keys, t.vals, t.touched, t.mask = keys, vals, touched, mask
}

// reset empties the table, keeping its capacity.
func (t *codeTable) reset() {
	if 4*len(t.touched) < len(t.keys) {
		for _, i := range t.touched {
			t.keys[i] = 0
		}
	} else {
		clear(t.keys)
	}
	t.touched = t.touched[:0]
	t.n = 0
}

// pairTable is an open-addressing map from (parent block, split code) keys,
// packed into 64 bits, to int32 sub-block ids: RefineAll's one grouping
// pass per level, over every record at once instead of one parent block at
// a time. Keys are stored as key+1 so the zero value marks an empty slot.
type pairTable struct {
	keys  []uint64 // key+1; 0 = empty
	vals  []int32
	shift uint // 64 − log2(len(keys))
	n     int
}

// pairKey packs a parent block id and a split code.
func pairKey(parent, code int32) uint64 { return uint64(uint32(parent))<<32 | uint64(uint32(code)) }

// slot is the Fibonacci hash of k: the multiply carries both halves of the
// key into the top bits the table indexes by. A hash of the code alone
// would pile every parent's sub-blocks for one code onto a single probe run.
func (t *pairTable) slot(k uint64) int { return int((k * 0x9E3779B97F4A7C15) >> t.shift) }

// reset empties the table for up to n keys, keeping the capacity when it
// holds them at load ≤ 1/2.
func (t *pairTable) reset(n int) {
	size := 16
	for size < 2*n {
		size *= 2
	}
	if size > len(t.keys) {
		t.keys = make([]uint64, size)
		t.vals = make([]int32, size)
		t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	} else {
		clear(t.keys)
	}
	t.n = 0
}

// getOrInsert returns the id stored for k; on first sight it stores val
// and returns it with found = false.
func (t *pairTable) getOrInsert(k uint64, val int32) (id int32, found bool) {
	if 2*(t.n+1) > len(t.keys) {
		t.grow()
	}
	k++
	mask := len(t.keys) - 1
	for i := t.slot(k - 1); ; i = (i + 1) & mask {
		switch t.keys[i] {
		case 0:
			t.keys[i] = k
			t.vals[i] = val
			t.n++
			return val, false
		case k:
			return t.vals[i], true
		}
	}
}

// grow doubles the table and rehashes the live entries.
func (t *pairTable) grow() {
	keys, vals := t.keys, t.vals
	t.keys = make([]uint64, 2*len(keys))
	t.vals = make([]int32, 2*len(keys))
	t.shift--
	mask := len(t.keys) - 1
	for j, k := range keys {
		if k == 0 {
			continue
		}
		i := t.slot(k - 1)
		for t.keys[i] != 0 {
			i = (i + 1) & mask
		}
		t.keys[i], t.vals[i] = k, vals[j]
	}
}

// countScratch is the pooled working set of a counting-only refinement
// pass: the per-parent split table and the per-sub-block record counts.
// Instances are handed out by countPool and must be reset per parent block
// (reset happens at acquisition points); nothing in a scratch may outlive
// the countRefine call that borrowed it.
type countScratch struct {
	tab  codeTable
	cntS []int32
	cntT []int32
}

var countPool = sync.Pool{New: func() any { return new(countScratch) }}
