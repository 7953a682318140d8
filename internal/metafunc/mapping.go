package metafunc

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"affidavit/internal/table"
)

// Mapping is an explicit value mapping x ↦ yᵢ if x = xᵢ, otherwise x ↦ x,
// with ψ = 2n for n entries (both sides of every entry are data values that
// must be written down — Figure 1 counts its 13-entry maps as 26).
//
// Mappings are never induced during the search. They come from explicit
// string pairs (NewMapping: generators, fixtures, the exhaustive baseline)
// or from value codes of one dictionary (NewCodedMapping: the greedy-map
// probe Hд that decides whether an attribute should be marked ⊡, and the
// greedy maps that finalise a ⊡ state). A coded mapping renders its entry
// strings once, on the first Key, Apply, Lookup, Entries or String; Len and
// Params read the pair count, and blocking applies it on codes (Codes), so
// a probe that is only costed and compared never builds a string.
type Mapping struct {
	dict     *table.Dict // nil for a mapping built from strings
	from, to []int32     // entry codes over dict: from[i] ↦ to[i]
	n        int         // number of entries

	once  sync.Once // renders pairs and keys of a coded mapping
	pairs map[string]string
	keys  []string // sorted, for deterministic rendering and keys
}

// NewMapping builds a value mapping from explicit pairs. Identity entries
// (x ↦ x) are kept: they still occupy description length, exactly as in the
// paper's cost arithmetic.
func NewMapping(pairs map[string]string) *Mapping {
	m := &Mapping{pairs: make(map[string]string, len(pairs)), n: len(pairs)}
	for k, v := range pairs {
		m.pairs[k] = v
	}
	m.keys = make([]string, 0, len(pairs))
	for k := range m.pairs {
		m.keys = append(m.keys, k)
	}
	sort.Strings(m.keys)
	return m
}

// NewCodedMapping builds the mapping dict.Value(from[i]) ↦
// dict.Value(to[i]) from codes of dict. The from codes must be distinct,
// and every code must already be interned in dict. The mapping keeps both
// slices; callers must not modify them afterwards.
func NewCodedMapping(dict *table.Dict, from, to []int32) *Mapping {
	return &Mapping{dict: dict, from: from, to: to, n: len(from)}
}

// Codes returns the entry codes of a mapping built over d by
// NewCodedMapping; ok is false for any other mapping. Callers must not
// modify the returned slices.
func (m *Mapping) Codes(d *table.Dict) (from, to []int32, ok bool) {
	if m.dict == nil || m.dict != d {
		return nil, nil, false
	}
	return m.from, m.to, true
}

// render builds the entry strings of a coded mapping on first use. The
// dictionary is append-only, so its snapshot covers every entry code.
func (m *Mapping) render() {
	if m.dict == nil {
		return
	}
	m.once.Do(func() {
		vals := m.dict.Snapshot()
		m.pairs = make(map[string]string, len(m.from))
		m.keys = make([]string, len(m.from))
		for i, c := range m.from {
			m.keys[i] = vals[c]
			m.pairs[vals[c]] = vals[m.to[i]]
		}
		sort.Strings(m.keys)
	})
}

func (m *Mapping) Apply(x string) string {
	m.render()
	if y, ok := m.pairs[x]; ok {
		return y
	}
	return x
}

// Len returns the number of entries n.
func (m *Mapping) Len() int { return m.n }

// Params is 2n.
func (m *Mapping) Params() int { return 2 * m.n }

// Lookup reports the mapped value and whether x has an explicit entry.
func (m *Mapping) Lookup(x string) (string, bool) {
	m.render()
	y, ok := m.pairs[x]
	return y, ok
}

// Entries returns the mapping pairs in sorted key order.
func (m *Mapping) Entries() [][2]string {
	m.render()
	out := make([][2]string, len(m.keys))
	for i, k := range m.keys {
		out[i] = [2]string{k, m.pairs[k]}
	}
	return out
}

func (m *Mapping) Key() string {
	m.render()
	n := 4
	for _, k := range m.keys {
		n += len(k) + len(m.pairs[k]) + 42
	}
	var sb strings.Builder
	sb.Grow(n)
	sb.WriteString("map:")
	for _, k := range m.keys {
		writeQuoted(&sb, k)
		writeQuoted(&sb, m.pairs[k])
	}
	return sb.String()
}

// writeQuoted is appendQuoted straight into a builder, so a mapping's long
// key is written once.
func writeQuoted(sb *strings.Builder, s string) {
	var tmp [20]byte
	sb.Write(strconv.AppendInt(tmp[:0], int64(len(s)), 10))
	sb.WriteByte(':')
	sb.WriteString(s)
}

func (m *Mapping) String() string {
	m.render()
	const maxShown = 4
	var sb strings.Builder
	sb.WriteString("x ↦ {")
	for i, k := range m.keys {
		if i == maxShown {
			fmt.Fprintf(&sb, ", … (%d entries)", len(m.keys))
			break
		}
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%q↦%q", k, m.pairs[k])
	}
	sb.WriteString("}, otherwise x ↦ x")
	return sb.String()
}
