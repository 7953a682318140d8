package metafunc

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Mapping is an explicit value mapping x ↦ yᵢ if x = xᵢ, otherwise x ↦ x,
// with ψ = 2n for n entries (both sides of every entry are data values that
// must be written down — Figure 1 counts its 13-entry maps as 26).
//
// Mappings are never induced during the search; they are constructed at the
// very end from a maximally determined alignment (Section 4.4.1), or by the
// greedy-map probe that decides whether an attribute should be marked ⊡.
type Mapping struct {
	pairs map[string]string
	keys  []string // sorted, for deterministic rendering and keys
}

// NewMapping builds a value mapping from explicit pairs. Identity entries
// (x ↦ x) are kept: they still occupy description length, exactly as in the
// paper's cost arithmetic.
func NewMapping(pairs map[string]string) *Mapping {
	m := &Mapping{pairs: make(map[string]string, len(pairs))}
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

func (m *Mapping) Apply(x string) string {
	if y, ok := m.pairs[x]; ok {
		return y
	}
	return x
}

// Len returns the number of entries n.
func (m *Mapping) Len() int { return len(m.pairs) }

// Params is 2n.
func (m *Mapping) Params() int { return 2 * len(m.pairs) }

// Lookup reports the mapped value and whether x has an explicit entry.
func (m *Mapping) Lookup(x string) (string, bool) {
	y, ok := m.pairs[x]
	return y, ok
}

// Entries returns the mapping pairs in sorted key order.
func (m *Mapping) Entries() [][2]string {
	out := make([][2]string, len(m.keys))
	for i, k := range m.keys {
		out[i] = [2]string{k, m.pairs[k]}
	}
	return out
}

func (m *Mapping) Key() string {
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
