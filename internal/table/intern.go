package table

import "sync"

// Dict is an append-only dictionary mapping distinct string values to dense
// int32 codes. It is the value-interning backbone of the columnar backend:
// equal strings get equal codes, so the blocking and search hot paths can
// compare, group and hash attribute values as machine integers instead of
// strings.
//
// Dicts are safe for concurrent use. Codes are assigned in interning order
// and never change; numeric code order is therefore NOT a deterministic
// property across runs (concurrent interners may race for the next code) and
// must never be used for tie-breaking — compare the underlying strings via
// Value instead.
type Dict struct {
	mu    sync.RWMutex
	codes map[string]int32
	vals  []string
	// recent remembers, per hash slot of a value's bytes, code+1 of the
	// last value appendFieldCodes met there (0 = none), so a repeated CSV
	// field is checked against one string instead of hashed into codes.
	// Codes never change, so a slot is only ever stale, never wrong.
	recent []int32
}

// recentSlots is the size of a Dict's recent-value table.
const recentSlots = 1024

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{codes: make(map[string]int32)}
}

// Len returns the number of distinct interned values.
func (d *Dict) Len() int {
	d.mu.RLock()
	n := len(d.vals)
	d.mu.RUnlock()
	return n
}

// Code interns v and returns its code, assigning the next dense code if v is
// new.
func (d *Dict) Code(v string) int32 {
	d.mu.RLock()
	c, ok := d.codes[v]
	d.mu.RUnlock()
	if ok {
		return c
	}
	d.mu.Lock()
	c, ok = d.codes[v]
	if !ok {
		c = int32(len(d.vals))
		d.codes[v] = c
		d.vals = append(d.vals, v)
	}
	d.mu.Unlock()
	return c
}

// appendCodes interns vals[off], vals[off+stride], … in that order under
// one lock, appends their codes to dst, and returns dst with a snapshot of
// the value table that covers them.
func (d *Dict) appendCodes(dst []int32, vals []string, off, stride int) ([]int32, []string) {
	d.mu.Lock()
	for i := off; i < len(vals); i += stride {
		c, ok := d.codes[vals[i]]
		if !ok {
			c = int32(len(d.vals))
			d.codes[vals[i]] = c
			d.vals = append(d.vals, vals[i])
		}
		dst = append(dst, c)
	}
	view := d.vals[:len(d.vals):len(d.vals)]
	d.mu.Unlock()
	return dst, view
}

// appendFieldCodes is appendCodes over fields held as bytes: field i is
// raw[ends[i−1]+1 : ends[i]] (CSVReader.readRecord's layout). A value
// already interned is looked up in place — first in the recent-value
// table, then in codes — and only a new one is copied out as a string.
func (d *Dict) appendFieldCodes(dst []int32, raw []byte, ends []int, off, stride int) ([]int32, []string) {
	d.mu.Lock()
	if d.recent == nil {
		d.recent = make([]int32, recentSlots)
	}
	for i := off; i < len(ends); i += stride {
		start := 0
		if i > 0 {
			start = ends[i-1] + 1
		}
		b := raw[start:ends[i]]
		h := uint32(2166136261) // FNV-1a
		for _, x := range b {
			h = (h ^ uint32(x)) * 16777619
		}
		slot := &d.recent[h%recentSlots]
		if c := *slot - 1; c >= 0 && d.vals[c] == string(b) {
			dst = append(dst, c)
			continue
		}
		c, ok := d.codes[string(b)]
		if !ok {
			v := string(b)
			c = int32(len(d.vals))
			d.codes[v] = c
			d.vals = append(d.vals, v)
		}
		*slot = c + 1
		dst = append(dst, c)
	}
	view := d.vals[:len(d.vals):len(d.vals)]
	d.mu.Unlock()
	return dst, view
}

// Lookup returns v's code without interning; ok is false when v was never
// interned.
func (d *Dict) Lookup(v string) (int32, bool) {
	d.mu.RLock()
	c, ok := d.codes[v]
	d.mu.RUnlock()
	return c, ok
}

// Value returns the string behind code c.
func (d *Dict) Value(c int32) string {
	d.mu.RLock()
	v := d.vals[c]
	d.mu.RUnlock()
	return v
}

// Snapshot returns the current value table as a read-only slice: index c
// holds the string behind code c for every code assigned so far. Because
// dictionaries are append-only, the snapshot stays valid (for its codes)
// even as the dictionary keeps growing — callers get lock-free decoding.
func (d *Dict) Snapshot() []string {
	d.mu.RLock()
	v := d.vals[:len(d.vals):len(d.vals)]
	d.mu.RUnlock()
	return v
}

// CodeColumn returns attribute a's values as a code column of d in record
// order. Passing the same Dict for the corresponding attribute of two
// snapshots puts both columns in one shared code space, so cross-snapshot
// equality is code equality. When d IS the table's own dictionary for a,
// the result is the stored column itself — capacity-clamped and read-only:
// callers must not write it — so a snapshot ingested into the dictionaries
// it is explained over is interned exactly once. Otherwise the stored codes
// are translated through a remap filled on first appearance in record
// order: d interns each distinct value present once, in that order.
func (t *Table) CodeColumn(a int, d *Dict) []int32 {
	if t.dicts[a] == d {
		return t.cols[a][:t.n:t.n]
	}
	view := t.views[a]
	remap := make([]int32, len(view))
	for i := range remap {
		remap[i] = -1
	}
	col := make([]int32, t.n)
	for i, c := range t.cols[a] {
		if remap[c] < 0 {
			remap[c] = d.Code(view[c])
		}
		col[i] = remap[c]
	}
	return col
}

// DictPool is a long-lived set of dictionaries keyed by attribute name, the
// value-interning substrate of snapshot-chain sessions: when successive
// snapshots (or many tables from the same domain) are interned against one
// pool, every value already seen by an earlier run keeps its code and is
// never re-interned — only genuinely novel values pay the interning cost.
//
// Pools are safe for concurrent use; the dictionaries they hand out are
// append-only and shared, so results derived from pooled codes must not
// depend on numeric code order (see Dict).
type DictPool struct {
	mu    sync.Mutex
	dicts map[string]*Dict
}

// NewDictPool returns an empty pool.
func NewDictPool() *DictPool {
	return &DictPool{dicts: make(map[string]*Dict)}
}

// Dict returns the pool's dictionary for the named attribute, creating it
// on first use.
func (p *DictPool) Dict(attr string) *Dict {
	p.mu.Lock()
	d, ok := p.dicts[attr]
	if !ok {
		d = NewDict()
		p.dicts[attr] = d
	}
	p.mu.Unlock()
	return d
}

// DictsFor returns the pool's dictionaries for every attribute of s, in
// schema order, creating missing ones. Two schemas sharing attribute names
// receive the same dictionaries for those attributes.
func (p *DictPool) DictsFor(s *Schema) []*Dict {
	out := make([]*Dict, s.Len())
	for a := range out {
		out[a] = p.Dict(s.Attr(a))
	}
	return out
}

// Attrs returns the number of attribute dictionaries in the pool.
func (p *DictPool) Attrs() int {
	p.mu.Lock()
	n := len(p.dicts)
	p.mu.Unlock()
	return n
}

// Values returns the total number of interned values across the pool, a
// measure of how much interning work chain reuse has amortised.
func (p *DictPool) Values() int {
	p.mu.Lock()
	sum := 0
	//affidavit:ordered commutative sum of per-dict lengths; Len is a pure accessor
	for _, d := range p.dicts {
		sum += d.Len()
	}
	p.mu.Unlock()
	return sum
}
