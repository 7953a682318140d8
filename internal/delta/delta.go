// Package delta defines the Explain-Table-Delta problem: problem instances
// (Def 3.1), explanations (Def 3.2–3.5), explanation construction from an
// attribute-function tuple (Proposition 3.6), and the minimum-description-
// length cost model (Def 3.8–3.10).
package delta

import (
	"context"
	"fmt"
	"sync"

	"affidavit/internal/metafunc"
	"affidavit/internal/spill"
	"affidavit/internal/table"
)

// Instance is a problem instance I = (S, T, A, F): source and target
// snapshots under a shared schema, plus the meta functions that implicitly
// describe the candidate function set F.
type Instance struct {
	Source *table.Table
	Target *table.Table
	Metas  []metafunc.Meta

	dicts     []*table.Dict // pre-seeded dictionaries; nil = fresh per attribute
	codedOnce sync.Once
	coded     *Coded
}

// NewInstance validates the snapshots share a schema and returns an
// instance. A nil metas slice defaults to metafunc.DefaultMetas().
func NewInstance(source, target *table.Table, metas []metafunc.Meta) (*Instance, error) {
	if !source.Schema().Equal(target.Schema()) {
		return nil, fmt.Errorf("delta: source and target schemas differ: %v vs %v",
			source.Schema().Attrs(), target.Schema().Attrs())
	}
	if metas == nil {
		metas = metafunc.DefaultMetas()
	}
	return &Instance{Source: source, Target: target, Metas: metas}, nil
}

// NewInstanceWithDicts is NewInstance with pre-seeded per-attribute
// dictionaries (one per schema attribute, typically from a table.DictPool):
// the coded view puts both snapshots into the given dictionaries, so
// values already interned by earlier runs keep their codes, and a snapshot
// that was built over these very dictionaries is not interned again — the
// view shares its stored columns. Explanations are unaffected by the
// pre-seeding — nothing in the pipeline depends on numeric code order —
// only the interning work changes.
func NewInstanceWithDicts(source, target *table.Table, metas []metafunc.Meta, dicts []*table.Dict) (*Instance, error) {
	inst, err := NewInstance(source, target, metas)
	if err != nil {
		return nil, err
	}
	if len(dicts) != inst.NumAttrs() {
		return nil, fmt.Errorf("delta: got %d dictionaries, schema has %d attributes",
			len(dicts), inst.NumAttrs())
	}
	for a, d := range dicts {
		if d == nil {
			return nil, fmt.Errorf("delta: dictionary for attribute %d is nil", a)
		}
	}
	inst.dicts = dicts
	return inst, nil
}

// Schema returns the shared schema A.
func (in *Instance) Schema() *table.Schema { return in.Source.Schema() }

// NumAttrs returns d = |A|.
func (in *Instance) NumAttrs() int { return in.Source.Schema().Len() }

// Delta returns ∆ = |S| − |T| (Corollary 4.5).
func (in *Instance) Delta() int { return in.Source.Len() - in.Target.Len() }

// Coded is the interned columnar view of an instance: per attribute, one
// dictionary shared by both snapshots plus both value columns as dense
// int32 codes. Equal codes mean equal strings across snapshots, which turns
// the blocking and alignment hot paths into integer operations.
type Coded struct {
	// Dicts holds the per-attribute dictionaries. They keep growing as
	// attribute-function outputs are interned during the search.
	Dicts []*table.Dict
	// Src[a][i] is the code of source record i's value of attribute a;
	// Tgt likewise for the target snapshot. Read-only: a column is the
	// snapshot's own storage when the snapshot was built over Dicts[a].
	Src, Tgt [][]int32
	// Base[a] is Dicts[a].Len() right after both raw columns were interned.
	// Raw snapshot values always have codes < Base[a]; codes ≥ Base[a] are
	// function outputs interned later by this run. With pre-seeded
	// dictionaries (NewInstanceWithDicts) codes < Base[a] may also cover
	// values from earlier runs that this pair never uses — memo tables sized
	// by Base stay correct, just sparser.
	Base []int32
	// Present[a] lists the distinct codes that actually occur in either of
	// attribute a's columns, in first-appearance order. Function memos
	// iterate Present instead of the full [0, Base) range, so per-run apply
	// work is bounded by the pair's own value set even when a long-lived
	// dictionary pool has interned far more over its lifetime.
	Present [][]int32
}

// Coded returns the interned columnar view, building it on first use. The
// view is shared and never written; appending to a snapshot afterwards does
// not show through it.
func (in *Instance) Coded() *Coded {
	in.codedOnce.Do(func() {
		d := in.NumAttrs()
		co := &Coded{
			Dicts:   make([]*table.Dict, d),
			Src:     make([][]int32, d),
			Tgt:     make([][]int32, d),
			Base:    make([]int32, d),
			Present: make([][]int32, d),
		}
		for a := 0; a < d; a++ {
			if in.dicts != nil {
				co.Dicts[a] = in.dicts[a]
			} else {
				co.Dicts[a] = table.NewDict()
			}
			co.Src[a] = in.Source.CodeColumn(a, co.Dicts[a])
			co.Tgt[a] = in.Target.CodeColumn(a, co.Dicts[a])
			co.Base[a] = int32(co.Dicts[a].Len())
			seen := make([]bool, co.Base[a])
			for _, col := range [][]int32{co.Src[a], co.Tgt[a]} {
				for _, c := range col {
					if !seen[c] {
						seen[c] = true
						co.Present[a] = append(co.Present[a], c)
					}
				}
			}
		}
		in.coded = co
	})
	return in.coded
}

// FuncTuple is F^E: one attribute function per attribute, in schema order.
type FuncTuple []metafunc.Func

// Identity returns the all-identity tuple for d attributes.
func IdentityTuple(d int) FuncTuple {
	ft := make(FuncTuple, d)
	for i := range ft {
		ft[i] = metafunc.Identity{}
	}
	return ft
}

// Apply computes F^E(s) for one record (Def 3.4).
func (ft FuncTuple) Apply(r table.Record) table.Record {
	out := make(table.Record, len(r))
	for i, v := range r {
		out[i] = ft[i].Apply(v)
	}
	return out
}

// Params returns L(F^E) = Σ_a ψ(f_a) (Def 3.9).
func (ft FuncTuple) Params() int {
	sum := 0
	for _, f := range ft {
		sum += f.Params()
	}
	return sum
}

// Clone returns a copy of the tuple.
func (ft FuncTuple) Clone() FuncTuple { return append(FuncTuple(nil), ft...) }

// Key returns a canonical identity for the tuple.
func (ft FuncTuple) Key() string {
	var key string
	for _, f := range ft {
		key += "|" + f.Key()
	}
	return key
}

// Explanation is a valid explanation E = (S^{E−}, T^{E+}, F^E) together with
// the alignment its construction produced: CoreSrc[i] is transformed by
// Funcs into target record CoreTgt[i].
type Explanation struct {
	Inst  *Instance
	Funcs FuncTuple

	CoreSrc  []int // core S^E, as indices into Inst.Source
	CoreTgt  []int // core image T^E, aligned pairwise with CoreSrc
	Deleted  []int // S^{E−}
	Inserted []int // T^{E+}
}

// BuildOptions configures BuildCtx.
type BuildOptions struct {
	// Workers bounds the goroutines of the conversion: with Workers > 1 the
	// multiset matching is partitioned by key hash and up to this many
	// partitions (and per-attribute memo constructions) run at a time. For
	// any value the resulting explanation is byte-identical to the
	// one-partition one — the greedy procedure resolves each key
	// independently anyway.
	Workers int
	// Spill, when active, bounds the matching's memory: if the in-memory
	// index's estimated size exceeds the budget's share, the partitions are
	// sized to fit the share and their member lists go to a temp file.
	// Explanations are byte-identical to the in-memory path; if the disk
	// fails, the matching reruns in memory.
	Spill *spill.Manager
	// SpillStats, when non-nil, accumulates the spilled volume.
	SpillStats *spill.Stats
}

// Build constructs a valid explanation from an attribute-function tuple by
// the procedure of Proposition 3.6: a source record joins the core when its
// image under the tuple equals a not-yet-claimed target record; ties are
// broken in source order, making construction deterministic.
//
// Matching runs on the interned columnar view: records are compared as
// code tuples, and each function is applied at most once per distinct
// source value of its attribute. Build is BuildCtx without cancellation,
// workers or a budget.
func Build(inst *Instance, funcs FuncTuple) (*Explanation, error) {
	return BuildCtx(context.Background(), inst, funcs, BuildOptions{})
}

// BuildCtx is Build with cooperative cancellation and BuildOptions. The
// conversion checks ctx between coarse phases and periodically inside every
// record scan; once cancelled it returns ctx's error.
func BuildCtx(ctx context.Context, inst *Instance, funcs FuncTuple, opts BuildOptions) (*Explanation, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(funcs) != inst.NumAttrs() {
		return nil, fmt.Errorf("delta: tuple has %d functions, schema has %d attributes",
			len(funcs), inst.NumAttrs())
	}
	co := inst.Coded()
	memos, err := buildMemos(ctx, co, funcs, opts.Workers)
	if err != nil {
		return nil, err
	}
	matchOf, err := match(ctx, inst, co, memos, opts.Workers, opts.Spill, opts.SpillStats)
	if err != nil && ctx.Err() == nil {
		// Disk trouble, not cancellation: the budget is advisory, so rerun
		// on in-memory partitions rather than fail the run.
		matchOf, err = match(ctx, inst, co, memos, opts.Workers, nil, nil)
	}
	if err != nil {
		return nil, err
	}
	e := &Explanation{Inst: inst, Funcs: funcs.Clone()}
	assemble(e, matchOf, inst.Target.Len())
	return e, nil
}

// buildMemos computes the per-attribute apply memos over the raw code
// space: memos[a][c] is the code of funcs[a] applied to value c, or -1 when
// the output is no snapshot value (such an image can never match a target
// record). Only codes present in this pair are filled — the rest are never
// read — so pooled dictionaries holding other runs' values cost nothing
// here. Identity attributes skip the memo entirely. Attributes are
// independent, so workers > 1 fans them out.
func buildMemos(ctx context.Context, co *Coded, funcs FuncTuple, workers int) ([][]int32, error) {
	memos := make([][]int32, len(funcs))
	err := forEach(len(funcs), workers, func(a int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		if metafunc.IsIdentity(funcs[a]) {
			return nil
		}
		dict := co.Dicts[a]
		m := make([]int32, co.Base[a])
		for _, c := range co.Present[a] {
			if out, ok := dict.Lookup(funcs[a].Apply(dict.Value(c))); ok {
				m[c] = out
			} else {
				m[c] = -1
			}
		}
		memos[a] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	return memos, ctx.Err()
}

// imageCode returns source record s's image code of attribute a under the
// memo table (raw code when the attribute is identity).
func imageCode(co *Coded, memos [][]int32, a int, s int) int32 {
	c := co.Src[a][s]
	if memos[a] == nil {
		return c
	}
	return memos[a][c]
}

// assemble turns the match table into the explanation's record partitions:
// core pairs in source order, deletions in source order, insertions in
// target order — exactly the order the sequential scan used to append them.
func assemble(e *Explanation, matchOf []int32, nTgt int) {
	claimed := make([]bool, nTgt)
	for s, t := range matchOf {
		if t >= 0 {
			e.CoreSrc = append(e.CoreSrc, s)
			e.CoreTgt = append(e.CoreTgt, int(t))
			claimed[t] = true
		} else {
			e.Deleted = append(e.Deleted, s)
		}
	}
	for t := 0; t < nTgt; t++ {
		if !claimed[t] {
			e.Inserted = append(e.Inserted, t)
		}
	}
}

// Trivial returns E∅ = (S, T, {id}^d): everything deleted and inserted
// (Section 3.1). It exists for every instance and costs |A|·|T| at α = 0.5.
func Trivial(inst *Instance) *Explanation {
	e := &Explanation{Inst: inst, Funcs: IdentityTuple(inst.NumAttrs())}
	for s := 0; s < inst.Source.Len(); s++ {
		e.Deleted = append(e.Deleted, s)
	}
	for t := 0; t < inst.Target.Len(); t++ {
		e.Inserted = append(e.Inserted, t)
	}
	return e
}

// CoreSize returns |S^E| = |T^E|.
func (e *Explanation) CoreSize() int { return len(e.CoreSrc) }

// Validate checks the validity conditions of Definition 3.5: the core image
// actually reproduces the claimed targets, the alignment is a bijection, and
// core/deleted and core-image/inserted partition S and T.
func (e *Explanation) Validate() error {
	if len(e.CoreSrc) != len(e.CoreTgt) {
		return fmt.Errorf("delta: core has %d sources but %d targets", len(e.CoreSrc), len(e.CoreTgt))
	}
	if len(e.CoreSrc)+len(e.Deleted) != e.Inst.Source.Len() {
		return fmt.Errorf("delta: core+deleted = %d, |S| = %d",
			len(e.CoreSrc)+len(e.Deleted), e.Inst.Source.Len())
	}
	if len(e.CoreTgt)+len(e.Inserted) != e.Inst.Target.Len() {
		return fmt.Errorf("delta: core image+inserted = %d, |T| = %d",
			len(e.CoreTgt)+len(e.Inserted), e.Inst.Target.Len())
	}
	seenS := make([]bool, e.Inst.Source.Len())
	for _, part := range [][]int{e.CoreSrc, e.Deleted} {
		for _, s := range part {
			if seenS[s] {
				return fmt.Errorf("delta: source record %d appears twice", s)
			}
			seenS[s] = true
		}
	}
	seenT := make([]bool, e.Inst.Target.Len())
	for _, part := range [][]int{e.CoreTgt, e.Inserted} {
		for _, t := range part {
			if seenT[t] {
				return fmt.Errorf("delta: target record %d appears twice", t)
			}
			seenT[t] = true
		}
	}
	// Core image check on the interned columns: code equality is string
	// equality (both sides intern into the same dictionaries), and an image
	// missing from a dictionary cannot equal any target value. Each function
	// is applied once per distinct source value instead of once per record.
	co := e.Inst.Coded()
	memos, err := buildMemos(context.Background(), co, e.Funcs, 1)
	if err != nil {
		return err
	}
	for i, s := range e.CoreSrc {
		for a := 0; a < e.Inst.NumAttrs(); a++ {
			if imageCode(co, memos, a, s) != co.Tgt[a][e.CoreTgt[i]] {
				img := e.Funcs.Apply(e.Inst.Source.Record(s))
				return fmt.Errorf("delta: F(source %d) = %v ≠ target %d = %v",
					s, img, e.CoreTgt[i], e.Inst.Target.Record(e.CoreTgt[i]))
			}
		}
	}
	return nil
}

// CostModel carries the cost parameter α ∈ [0,1] of Definition 3.10.
type CostModel struct {
	Alpha float64
}

// DefaultCosts is the paper's standard setting α = 0.5, under which
// c(E) = L(T^{E+}) + L(F^E).
var DefaultCosts = CostModel{Alpha: 0.5}

// TrivialCost returns c(E∅) for a d-attribute instance with nTgt target
// records in closed form: the trivial explanation inserts every target
// record (L = d·nTgt) with an all-identity tuple (L(F) = 0), so
// c = 2α·d·nTgt. Equals Cost(Trivial(inst)) without building E∅.
func (cm CostModel) TrivialCost(d, nTgt int) float64 {
	return 2 * cm.Alpha * float64(d*nTgt)
}

// InsertionLength returns L(T^{E+}) = |A| · |T^{E+}| (Def 3.8).
func (e *Explanation) InsertionLength() int {
	return e.Inst.NumAttrs() * len(e.Inserted)
}

// FunctionLength returns L(F^E) (Def 3.9).
func (e *Explanation) FunctionLength() int { return e.Funcs.Params() }

// Cost computes c(E) = 2α·L(T^{E+}) + 2(1−α)·L(F^E) (Def 3.10).
func (cm CostModel) Cost(e *Explanation) float64 {
	return 2*cm.Alpha*float64(e.InsertionLength()) +
		2*(1-cm.Alpha)*float64(e.FunctionLength())
}
