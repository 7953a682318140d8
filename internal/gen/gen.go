// Package gen implements the synthetic problem-instance generator of
// Section 5.1: starting from a dataset table, it drops over-distinct and
// empty attributes, appends an artificial permuted primary key, samples
// per-attribute transformation functions (respecting attribute domains,
// with value mappings as random permutations), splits the records into core
// and per-side noise according to the noise percentage η, and emits the two
// snapshots together with the reference explanation used for scoring.
package gen

import (
	"fmt"
	"math/rand"

	"affidavit/internal/delta"
	"affidavit/internal/metafunc"
	"affidavit/internal/table"
)

// Setting is one difficulty setting (η, τ) from Table 2.
type Setting struct {
	// Eta is the noise percentage η: the fraction of each snapshot made up
	// of deleted/inserted records.
	Eta float64
	// Tau is the transformation percentage τ: the per-attribute likelihood
	// of sampling a non-identity function.
	Tau float64
}

// Settings returns the paper's three evaluation settings.
func Settings() []Setting {
	return []Setting{{0.3, 0.3}, {0.5, 0.5}, {0.7, 0.7}}
}

func (s Setting) String() string {
	return fmt.Sprintf("η=%g,τ=%g", s.Eta, s.Tau)
}

// Config controls generation.
type Config struct {
	Setting
	Seed int64
	// MaxDistinctRatio drops attributes whose distinct-value ratio exceeds
	// it before generation (Section 5.1 uses 0.7). Default 0.7.
	MaxDistinctRatio float64
	// KeyAttr names the artificial primary-key attribute. Default "rid".
	KeyAttr string
}

// Problem is a generated instance plus its ground truth.
type Problem struct {
	Inst *delta.Instance
	// Reference is E_ref: the explanation that reproduces exactly the
	// generation (core alignment, sampled functions, noise as
	// deleted/inserted).
	Reference *delta.Explanation
	// KeyAttr is the schema position of the artificial primary key.
	KeyAttr int
	// blueprint supports Scale (Figure 5).
	bp *blueprint
}

// blueprint references the filtered dataset by record index instead of
// materialising row tuples: core and noise sets are index slices, and
// realize streams the snapshots straight into columnar builders. A 500k-row
// problem therefore costs the (interned) dataset plus index arrays, never a
// [][]string copy of every split.
type blueprint struct {
	filtered *table.Table // post-filter, pre-key
	core     []int32      // filtered-record indices
	srcNoise []int32
	tgtNoise []int32
	funcs    []sampledFunc // one per data attribute
	cfg      Config
}

func (bp *blueprint) schema() *table.Schema { return bp.filtered.Schema() }

// sampledFunc is either a concrete function or a value-mapping permutation
// (kept as a permutation so Scale can re-derive pruned mappings).
type sampledFunc struct {
	f    metafunc.Func     // nil when perm != nil
	perm map[string]string // value permutation for mapping attributes
}

func (sf sampledFunc) build(liveValues map[string]bool) metafunc.Func {
	if sf.perm == nil {
		return sf.f
	}
	pruned := make(map[string]string, len(sf.perm))
	for k, v := range sf.perm {
		if liveValues == nil || liveValues[k] {
			pruned[k] = v
		}
	}
	return metafunc.NewMapping(pruned)
}

// Generate builds a problem instance from a dataset per Section 5.1.
func Generate(dataset *table.Table, cfg Config) (*Problem, error) {
	if cfg.MaxDistinctRatio == 0 {
		cfg.MaxDistinctRatio = 0.7
	}
	if cfg.KeyAttr == "" {
		cfg.KeyAttr = "rid"
	}
	if cfg.Eta < 0 || cfg.Eta >= 1 {
		return nil, fmt.Errorf("gen: η must be in [0,1), got %v", cfg.Eta)
	}
	if cfg.Tau < 0 || cfg.Tau > 1 {
		return nil, fmt.Errorf("gen: τ must be in [0,1], got %v", cfg.Tau)
	}
	if dataset.Len() < 4 {
		return nil, fmt.Errorf("gen: dataset too small (%d records)", dataset.Len())
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Drop empty and over-distinct attributes.
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
	if filtered.Schema().Len() == 0 {
		return nil, fmt.Errorf("gen: all attributes dropped by the distinct-ratio filter")
	}
	if filtered.Schema().Index(cfg.KeyAttr) >= 0 {
		return nil, fmt.Errorf("gen: dataset already has attribute %q", cfg.KeyAttr)
	}

	// Split into core and noise: each snapshot is a 1/(η+1) fraction of the
	// dataset, with η of each snapshot being noise.
	n := filtered.Len()
	noisePerSide := int(float64(n) * cfg.Eta / (1 + cfg.Eta))
	core := n - 2*noisePerSide
	if core < 1 {
		return nil, fmt.Errorf("gen: η=%v leaves no core records", cfg.Eta)
	}
	perm := rng.Perm(n)
	idx := func(part []int) []int32 {
		out := make([]int32, len(part))
		for i, j := range part {
			out[i] = int32(j)
		}
		return out
	}
	bp := &blueprint{
		filtered: filtered,
		core:     idx(perm[:core]),
		srcNoise: idx(perm[core : core+noisePerSide]),
		tgtNoise: idx(perm[core+noisePerSide:]),
		cfg:      cfg,
	}

	// Sample per-attribute functions, rejecting all-transformed draws.
	d := filtered.Schema().Len()
	for tries := 0; ; tries++ {
		bp.funcs = make([]sampledFunc, d)
		transformed := 0
		for a := 0; a < d; a++ {
			if rng.Float64() < cfg.Tau {
				bp.funcs[a] = sampleFunc(filtered, a, rng)
				transformed++
			} else {
				bp.funcs[a] = sampledFunc{f: metafunc.Identity{}}
			}
		}
		if transformed < d {
			break
		}
		if tries > 1000 {
			return nil, fmt.Errorf("gen: could not sample a non-total transformation")
		}
	}
	return bp.realize(rng)
}

// realize builds snapshots, instance and reference explanation from a
// blueprint. Snapshots are streamed position by position into builders —
// record values are decoded from the filtered dataset on the fly, so no
// row-tuple copy of either snapshot ever exists.
func (bp *blueprint) realize(rng *rand.Rand) (*Problem, error) {
	d := bp.schema().Len()
	nCore := len(bp.core)
	nSrc := nCore + len(bp.srcNoise)
	nTgt := nCore + len(bp.tgtNoise)

	// Concrete functions, with value-mapping permutations restricted to the
	// values that actually occur in this realisation.
	funcs := make(delta.FuncTuple, d, d+1)
	for a := 0; a < d; a++ {
		if bp.funcs[a].perm == nil {
			funcs[a] = bp.funcs[a].f
			continue
		}
		live := map[string]bool{}
		for _, idx := range [][]int32{bp.core, bp.srcNoise, bp.tgtNoise} {
			for _, j := range idx {
				live[bp.filtered.Value(int(j), a)] = true
			}
		}
		funcs[a] = bp.funcs[a].build(live)
	}

	// Artificial key: running integers, permuted independently per side.
	srcKeys := rng.Perm(nSrc)
	tgtKeys := rng.Perm(nTgt)
	key := func(k int) string { return fmt.Sprintf("%d", k) }

	// Source order and target order are shuffled independently so record
	// positions carry no signal.
	srcOrder := rng.Perm(nSrc)
	tgtOrder := rng.Perm(nTgt)
	srcPosOf := make([]int, nSrc) // logical row → position in snapshot
	for pos, logical := range srcOrder {
		srcPosOf[logical] = pos
	}
	tgtPosOf := make([]int, nTgt)
	for pos, logical := range tgtOrder {
		tgtPosOf[logical] = pos
	}

	schema, err := bp.schema().WithAttr(bp.cfg.KeyAttr)
	if err != nil {
		return nil, err
	}
	keyMap := make(map[string]string, nCore)
	for i := 0; i < nCore; i++ {
		keyMap[key(srcKeys[i])] = key(tgtKeys[i])
	}
	// Logical source rows: core 0..c-1, then source noise. Logical target
	// rows: core images 0..c-1, then transformed target noise. Each
	// snapshot is appended in *position* order, decoding the underlying
	// filtered record (and applying the tuple, on the target side) as it
	// goes. Both snapshots intern into one shared dictionary set that then
	// seeds the instance, so Coded() reuses the stored codes instead of
	// re-interning 2·|S| records — nothing downstream depends on numeric
	// code order, so explanations are unaffected.
	shared := make([]*table.Dict, schema.Len())
	for a := range shared {
		shared[a] = table.NewDict()
	}
	build := func(n int, order []int, emit func(rec table.Record, logical int)) (*table.Table, error) {
		b, err := table.NewBuilder(schema, shared)
		if err != nil {
			return nil, err
		}
		rec := make(table.Record, d+1)
		for pos := 0; pos < n; pos++ {
			emit(rec, order[pos])
			if err := b.Append(rec); err != nil {
				return nil, err
			}
		}
		return b.Table(), nil
	}
	src, err := build(nSrc, srcOrder, func(rec table.Record, logical int) {
		base := bp.core
		i := logical
		if logical >= nCore {
			base, i = bp.srcNoise, logical-nCore
		}
		for a := 0; a < d; a++ {
			rec[a] = bp.filtered.Value(int(base[i]), a)
		}
		rec[d] = key(srcKeys[logical])
	})
	if err != nil {
		return nil, err
	}
	tgt, err := build(nTgt, tgtOrder, func(rec table.Record, logical int) {
		base := bp.core
		i := logical
		if logical >= nCore {
			base, i = bp.tgtNoise, logical-nCore
		}
		for a := 0; a < d; a++ {
			rec[a] = funcs[a].Apply(bp.filtered.Value(int(base[i]), a))
		}
		rec[d] = key(tgtKeys[logical])
	})
	if err != nil {
		return nil, err
	}
	inst, err := delta.NewInstanceWithDicts(src, tgt, nil, shared)
	if err != nil {
		return nil, err
	}

	// Reference explanation with the explicit core alignment.
	refFuncs := append(funcs, metafunc.NewMapping(keyMap))
	ref := &delta.Explanation{Inst: inst, Funcs: refFuncs}
	for i := range bp.core {
		ref.CoreSrc = append(ref.CoreSrc, srcPosOf[i])
		ref.CoreTgt = append(ref.CoreTgt, tgtPosOf[i])
	}
	for i := range bp.srcNoise {
		ref.Deleted = append(ref.Deleted, srcPosOf[len(bp.core)+i])
	}
	for i := range bp.tgtNoise {
		ref.Inserted = append(ref.Inserted, tgtPosOf[len(bp.core)+i])
	}
	if err := ref.Validate(); err != nil {
		return nil, fmt.Errorf("gen: reference explanation invalid: %w", err)
	}
	return &Problem{
		Inst:      inst,
		Reference: ref,
		KeyAttr:   schema.Len() - 1,
		bp:        bp,
	}, nil
}

// Scale rebuilds the problem at a fraction of its size (Figure 5): frac of
// the core and frac of each noise set survive, the sampled transformations
// stay fixed, and value-mapping entries over vanished values are pruned so
// the reference cost is not inflated (Section 5.4.1).
func (p *Problem) Scale(frac float64, seed int64) (*Problem, error) {
	if frac <= 0 || frac > 1 {
		return nil, fmt.Errorf("gen: scale fraction must be in (0,1], got %v", frac)
	}
	rng := rand.New(rand.NewSource(seed))
	take := func(rows []int32, f float64) []int32 {
		k := int(float64(len(rows)) * f)
		if k < 1 && len(rows) > 0 {
			k = 1
		}
		idx := rng.Perm(len(rows))[:k]
		out := make([]int32, k)
		for i, j := range idx {
			out[i] = rows[j]
		}
		return out
	}
	nbp := &blueprint{
		filtered: p.bp.filtered,
		core:     take(p.bp.core, frac),
		srcNoise: take(p.bp.srcNoise, frac),
		tgtNoise: take(p.bp.tgtNoise, frac),
		funcs:    p.bp.funcs,
		cfg:      p.bp.cfg,
	}
	return nbp.realize(rng)
}
