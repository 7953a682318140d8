// Package datasets generates synthetic stand-ins for the paper's
// evaluation corpora (the HPI FD-discovery repeatability datasets). The
// real files are unavailable offline; each generator reproduces the
// original's *shape* — attribute count, record count and per-attribute
// cardinality/type profile — which is what the algorithm actually observes
// (DESIGN.md §3 records the substitution argument). In particular,
// chess/letter/nursery consist solely of low-cardinality attributes, which
// is what defeats the overlap-based Hs start state in the paper's Table 2.
package datasets

import (
	"fmt"
	"math/rand"
	"sync"

	"affidavit/internal/table"
)

// Column generates one attribute's values.
type Column interface {
	Name() string
	// Value draws the value for one record.
	Value(rng *rand.Rand) string
}

// Spec describes one dataset.
type Spec struct {
	Name string
	Rows int
	// DataAttrs is |A| − 1: the attribute count of Table 2 minus the
	// artificial key the generator re-adds.
	DataAttrs int
	Columns   []Column
}

// Build materialises the dataset deterministically from a seed.
func (s Spec) Build(seed int64) (*table.Table, error) {
	return s.BuildRows(s.Rows, seed)
}

// BuildRows materialises the dataset with a custom record count (used by
// the Figure 5/6 scalability harnesses). Every value is interned on
// arrival, so a 500k-row dataset costs its distinct values plus 4 bytes
// per cell, never a string tuple per record.
func (s Spec) BuildRows(rows int, seed int64) (*table.Table, error) {
	if len(s.Columns) != s.DataAttrs {
		return nil, fmt.Errorf("datasets: %s declares %d attrs but has %d columns",
			s.Name, s.DataAttrs, len(s.Columns))
	}
	names := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		names[i] = c.Name()
	}
	schema, err := table.NewSchema(names...)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	b, err := table.NewBuilder(schema, nil)
	if err != nil {
		return nil, err
	}
	rec := make(table.Record, len(s.Columns))
	for r := 0; r < rows; r++ {
		for i, c := range s.Columns {
			rec[i] = c.Value(rng)
		}
		if err := b.Append(rec); err != nil {
			return nil, err
		}
	}
	return b.Table(), nil
}

// ---------------------------------------------------------------------------
// Column kinds

// Cat is a categorical column drawing uniformly from fixed values.
type Cat struct {
	N    string
	Vals []string
}

func (c Cat) Name() string                { return c.N }
func (c Cat) Value(rng *rand.Rand) string { return c.Vals[rng.Intn(len(c.Vals))] }

// Int is an integer column in [Min, Max].
type Int struct {
	N        string
	Min, Max int
}

func (c Int) Name() string { return c.N }
func (c Int) Value(rng *rand.Rand) string {
	return fmt.Sprintf("%d", c.Min+rng.Intn(c.Max-c.Min+1))
}

// Dec is a decimal column in [Min, Max] with a fixed number of fractional
// digits.
type Dec struct {
	N        string
	Min, Max float64
	Digits   int
}

func (c Dec) Name() string { return c.N }
func (c Dec) Value(rng *rand.Rand) string {
	v := c.Min + rng.Float64()*(c.Max-c.Min)
	s := fmt.Sprintf("%.*f", c.Digits, v)
	// Canonicalise: strip trailing zeros so numeric metas can engage.
	for len(s) > 1 && s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if len(s) > 1 && s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s
}

// Code is a zero-padded identifier column with a bounded code pool, e.g.
// "C0042" — string-typed despite looking numeric, like real-world keys.
type Code struct {
	N      string
	Prefix string
	Pool   int // distinct codes
	Width  int
}

func (c Code) Name() string { return c.N }
func (c Code) Value(rng *rand.Rand) string {
	return fmt.Sprintf("%s%0*d", c.Prefix, c.Width, rng.Intn(c.Pool))
}

// Date is a yyyymmdd column between two years.
type Date struct {
	N          string
	FromY, ToY int
}

func (c Date) Name() string { return c.N }
func (c Date) Value(rng *rand.Rand) string {
	y := c.FromY + rng.Intn(c.ToY-c.FromY+1)
	m := 1 + rng.Intn(12)
	d := 1 + rng.Intn(28)
	return fmt.Sprintf("%04d%02d%02d", y, m, d)
}

// Word draws from a bounded pool of pseudo-words, mimicking name/city/text
// columns with realistic duplication.
type Word struct {
	N    string
	Pool int
	Len  int
}

// words memoises the pseudo-word of a (pool index, length): it is a pure
// function, and seeding a math/rand source per cell to recompute it was two
// thirds of BuildRows' CPU. Dataset builds run in parallel, hence sync.Map.
var words sync.Map // wordKey → string

type wordKey struct{ idx, n int }

func (c Word) Name() string { return c.N }
func (c Word) Value(rng *rand.Rand) string {
	// Deterministic word per pool index, lowercase letters.
	k := wordKey{rng.Intn(c.Pool), c.Len}
	if w, ok := words.Load(k); ok {
		return w.(string)
	}
	local := rand.New(rand.NewSource(int64(k.idx)*2654435761 + int64(c.Len)))
	b := make([]byte, c.Len)
	for i := range b {
		b[i] = byte('a' + local.Intn(26))
	}
	w := string(b)
	words.Store(k, w)
	return w
}

// Sparse wraps a column, emitting the empty string with probability P.
type Sparse struct {
	Col Column
	P   float64
}

func (c Sparse) Name() string { return c.Col.Name() }
func (c Sparse) Value(rng *rand.Rand) string {
	if rng.Float64() < c.P {
		return ""
	}
	return c.Col.Value(rng)
}

// ---------------------------------------------------------------------------
// Registry

// Get returns the named dataset spec.
func Get(name string) (Spec, error) {
	for _, s := range All() {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("datasets: unknown dataset %q (see datasets.Names())", name)
}

// Names lists all dataset names in Table 2 order.
func Names() []string {
	specs := All()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// Table2Rows returns name → record count, for harness sizing.
func Table2Rows() map[string]int {
	m := make(map[string]int)
	for _, s := range All() {
		m[s.Name] = s.Rows
	}
	return m
}
