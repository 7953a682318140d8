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
}

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
