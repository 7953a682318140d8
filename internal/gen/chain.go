package gen

import (
	"fmt"
	"math/rand"

	"affidavit/internal/delta"
	"affidavit/internal/metafunc"
	"affidavit/internal/table"
)

// ChainConfig configures MakeChain.
type ChainConfig struct {
	// Steps is the number of transitions; MakeChain emits Steps+1 snapshots.
	Steps int
	// Eta is the per-step noise fraction: the share of records deleted from
	// (and freshly inserted into) the table on every transition.
	Eta float64
	// Tau is the per-attribute probability of a sustained non-identity
	// transformation applied on every transition.
	Tau float64
	// Seed drives all sampling.
	Seed int64
	// MaxDistinctRatio drops over-distinct attributes before generation,
	// like Config. Default 0.7.
	MaxDistinctRatio float64
	// KeyAttr names the artificial primary-key attribute. Default "rid".
	KeyAttr string
	// PermuteKeys re-permutes every snapshot's key values (the paper's
	// rewritten-primary-keys regime, forcing a per-pair key mapping). The
	// default keeps keys stable across snapshots, the common shape of real
	// recurring feeds.
	PermuteKeys bool
}

// ChainProblem is a generated snapshot chain: successive states of one
// table under a recurring feed. Every transition applies the same
// per-attribute transformation tuple to the surviving records, deletes an
// η-fraction, inserts the same number of fresh records, optionally rewrites
// the primary key with a fresh permutation, and shuffles the record order —
// the "snapshot sequence" view of a temporal relation, and the workload
// where warm-started incremental explanation pays off: the functions of
// pair (n−1, n) transfer to pair (n, n+1), only alignment-specific value
// mappings must be re-derived.
type ChainProblem struct {
	// Snapshots holds the Steps+1 successive table states.
	Snapshots []*table.Table
	// Funcs is the per-transition transformation tuple over all attributes;
	// the key attribute's entry is identity (its real per-step change is a
	// fresh permutation, not a fixed function).
	Funcs delta.FuncTuple
	// KeyAttr is the schema position of the artificial primary key.
	KeyAttr int
}

// MakeChain generates a snapshot chain from a dataset table. Transformed
// attributes receive sustained transformations — numeric shifts for
// canonical-numeric attributes and value permutations (closed under
// repeated application) otherwise — so every transition exhibits the same
// function tuple.
func MakeChain(dataset *table.Table, cfg ChainConfig) (*ChainProblem, error) {
	if cfg.MaxDistinctRatio == 0 {
		cfg.MaxDistinctRatio = 0.7
	}
	if cfg.KeyAttr == "" {
		cfg.KeyAttr = "rid"
	}
	if cfg.Steps < 1 {
		return nil, fmt.Errorf("gen: chain needs ≥ 1 step, got %d", cfg.Steps)
	}
	if cfg.Eta < 0 || cfg.Eta >= 1 {
		return nil, fmt.Errorf("gen: η must be in [0,1), got %v", cfg.Eta)
	}
	if cfg.Tau < 0 || cfg.Tau > 1 {
		return nil, fmt.Errorf("gen: τ must be in [0,1], got %v", cfg.Tau)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Drop empty and over-distinct attributes, as in Generate.
	drop := map[int]bool{}
	for a := 0; a < dataset.Schema().Len(); a++ {
		st := dataset.Stats(a)
		if st.NonEmpty == 0 || st.DistinctRatio > cfg.MaxDistinctRatio {
			drop[a] = true
		}
	}
	filtered := dataset
	if len(drop) > 0 {
		filtered = dataset.DropAttrs(drop)
	}
	d := filtered.Schema().Len()
	if d == 0 {
		return nil, fmt.Errorf("gen: all attributes dropped by the distinct-ratio filter")
	}
	if filtered.Schema().Index(cfg.KeyAttr) >= 0 {
		return nil, fmt.Errorf("gen: dataset already has attribute %q", cfg.KeyAttr)
	}

	// Size the initial table so the reservoir can feed every step's inserts:
	// m live records plus Steps·⌊η·m⌋ future inserts must fit the dataset.
	n := filtered.Len()
	m := int(float64(n) / (1 + cfg.Eta*float64(cfg.Steps)))
	if m < 2 {
		return nil, fmt.Errorf("gen: dataset too small for %d chain steps at η=%v", cfg.Steps, cfg.Eta)
	}
	noise := int(cfg.Eta * float64(m))

	perm := rng.Perm(n)
	row := func(i int) table.Record { return filtered.Record(perm[i]) }
	// Stable keys ride along inside each record (position d) so deletions
	// and shuffles keep every record's identity; materialize strips or
	// rewrites them as configured.
	keyCounter := 0
	nextKey := func() string {
		k := fmt.Sprintf("%d", keyCounter)
		keyCounter++
		return k
	}
	cur := make([]table.Record, m)
	for i := range cur {
		cur[i] = append(row(i), nextKey())
	}
	reservoir := m // next unused dataset row

	// Sustained per-attribute transformations: value permutations map the
	// attribute's distinct-value set onto itself, so repeated application
	// never leaves the domain; numeric shifts drift but stay inducible.
	funcs := make(delta.FuncTuple, d, d+1)
	for a := 0; a < d; a++ {
		funcs[a] = metafunc.Identity{}
		if rng.Float64() >= cfg.Tau {
			continue
		}
		if filtered.Stats(a).CanonicalAll {
			y := rng.Intn(999) + 1
			if rng.Intn(2) == 0 {
				y = -y
			}
			f, err := metafunc.NewAdd(fmt.Sprintf("%d", y))
			if err != nil {
				return nil, err
			}
			funcs[a] = f
		} else {
			funcs[a] = metafunc.NewMapping(samplePermutation(distinctValues(filtered, a), rng))
		}
	}

	schema, err := filtered.Schema().WithAttr(cfg.KeyAttr)
	if err != nil {
		return nil, err
	}
	// Every snapshot of the chain interns into one dictionary set: most
	// values recur from step to step, so only a step's novel values grow it.
	shared := table.NewDictPool().DictsFor(schema)
	materialize := func(rows []table.Record) (*table.Table, error) {
		order := rng.Perm(len(rows))
		var keys []int
		if cfg.PermuteKeys {
			keys = rng.Perm(len(rows))
		}
		b, err := table.NewBuilder(schema, shared)
		if err != nil {
			return nil, err
		}
		rec := make(table.Record, d+1)
		for _, j := range order {
			copy(rec, rows[j])
			if cfg.PermuteKeys {
				rec[d] = fmt.Sprintf("%d", keys[j])
			}
			if err := b.Append(rec); err != nil {
				return nil, err
			}
		}
		return b.Table(), nil
	}

	p := &ChainProblem{
		Funcs:   append(funcs, metafunc.Identity{}),
		KeyAttr: d,
	}
	s0, err := materialize(cur)
	if err != nil {
		return nil, err
	}
	p.Snapshots = append(p.Snapshots, s0)
	for step := 0; step < cfg.Steps; step++ {
		// The previous snapshot interned its own copy of every value, so the
		// live records advance in place.
		for _, r := range cur {
			for a := 0; a < d; a++ {
				r[a] = funcs[a].Apply(r[a])
			}
		}
		// Delete η·m random survivors, insert as many fresh records.
		rng.Shuffle(len(cur), func(i, j int) { cur[i], cur[j] = cur[j], cur[i] })
		cur = cur[:len(cur)-noise]
		for i := 0; i < noise; i++ {
			cur = append(cur, append(row(reservoir), nextKey()))
			reservoir++
		}
		si, err := materialize(cur)
		if err != nil {
			return nil, err
		}
		p.Snapshots = append(p.Snapshots, si)
	}
	return p, nil
}
