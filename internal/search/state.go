// Package search implements Affidavit's best-first search (Algorithm 1):
// search states over partial attribute-function assignments, the cost lower
// bounds of Definition 4.6, the level-bounded priority queue of Section
// 4.6, state extension via function induction, and ⊡-finalisation with
// greedy value mappings.
package search

import (
	"context"
	"sort"
	"strings"

	"affidavit/internal/blocking"
	"affidavit/internal/delta"
	"affidavit/internal/metafunc"
)

// State is a search state H ∈ H_I: a partial assignment of functions to
// attributes together with its blocking result and cost. States are
// immutable once created.
type State struct {
	inst   *delta.Instance
	funcs  []metafunc.Func // nil = undecided (∗)
	blocks *blocking.Result
	cost   float64
	level  int    // number of decided attributes
	key    string // rendered by Key on first use; "" until then
}

// newRoot returns the all-undecided state H∅ = (∗, …, ∗). Every
// refinement in the tree observes ctx, so a cancelled run never starts
// another block split.
func newRoot(ctx context.Context, inst *delta.Instance, cm delta.CostModel) *State {
	s := &State{
		inst:   inst,
		funcs:  make([]metafunc.Func, inst.NumAttrs()),
		blocks: blocking.New(inst).WithContext(ctx),
	}
	s.cost = stateCost(s, cm)
	return s
}

// extend returns the state with attribute attr additionally decided as f.
func (s *State) extend(attr int, f metafunc.Func, cm delta.CostModel) *State {
	funcs := make([]metafunc.Func, len(s.funcs))
	copy(funcs, s.funcs)
	funcs[attr] = f
	return s.child(funcs, s.blocks.Refine(attr, f), 1, cm)
}

// extendAll returns the state with each attrs[i] additionally decided as
// fs[i]: the state s.extend(attrs[0], fs[0]).extend(attrs[1], fs[1])…
// reaches, re-blocked in one blocking.RefineAll pass instead of one
// refinement per attribute. With no attributes it returns s.
func (s *State) extendAll(attrs []int, fs []metafunc.Func, cm delta.CostModel) *State {
	if len(attrs) == 0 {
		return s
	}
	funcs := make([]metafunc.Func, len(s.funcs))
	copy(funcs, s.funcs)
	for i, a := range attrs {
		funcs[a] = fs[i]
	}
	return s.child(funcs, s.blocks.RefineAll(attrs, fs), len(attrs), cm)
}

// child returns the costed state n levels below s with tuple funcs and
// blocking blocks.
func (s *State) child(funcs []metafunc.Func, blocks *blocking.Result, n int, cm delta.CostModel) *State {
	ns := &State{
		inst:   s.inst,
		funcs:  funcs,
		blocks: blocks,
		level:  s.level + n,
	}
	ns.cost = stateCost(ns, cm)
	return ns
}

// stateCost computes c(H) per Definition 4.6, with ∆ = |S| − |T| subtracted
// from the source bound because |T^{E+}| = |S^{E−}| − ∆:
//
//	c(H) = 2α · max(c_t(H), c_s(H) − ∆) + 2(1−α) · c_f(H)
//
// where c_f sums ψ over decided functions, c_t lower-bounds |T^{E+}| from
// target-surplus blocks and c_s − ∆ lower-bounds it via Corollary 4.5. The
// insertion bound is additionally scaled by |A| to match L(T^{E+}) = |A|·|T^{E+}|
// of Definition 3.8, so end-state costs coincide with explanation costs.
func stateCost(s *State, cm delta.CostModel) float64 {
	cf := 0
	for _, f := range s.funcs {
		if f != nil {
			cf += f.Params()
		}
	}
	ct := s.blocks.TargetSurplus()
	cs := s.blocks.SourceSurplus() - s.inst.Delta()
	bound := ct
	if cs > bound {
		bound = cs
	}
	lt := bound * s.inst.NumAttrs()
	return 2*cm.Alpha*float64(lt) + 2*(1-cm.Alpha)*float64(cf)
}

// stateKey is an order-independent canonical identity for duplicate
// elimination: the sorted list of attr:funcKey assignments.
func stateKey(funcs []metafunc.Func) string {
	parts := make([]string, 0, len(funcs))
	for a, f := range funcs {
		if f != nil {
			parts = append(parts, itoa(a)+"="+f.Key())
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, ";")
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// IsEnd reports whether every attribute is decided (Definition 4.2).
func (s *State) IsEnd() bool { return s.level == len(s.funcs) }

// Cost returns c(H).
func (s *State) Cost() float64 { return s.cost }

// Level returns the number of decided attributes.
func (s *State) Level() int { return s.level }

// Key returns the canonical assignment key, rendering it on first use.
// The search keys a state when it is first offered to the queue, so a
// probe that is only costed and compared — the greedy-map probe Hд — never
// renders one. Key is not safe for concurrent use on one state.
func (s *State) Key() string {
	if s.key == "" && s.level > 0 {
		s.key = stateKey(s.funcs)
	}
	return s.key
}

// Funcs returns the decided tuple; undecided positions are nil.
func (s *State) Funcs() []metafunc.Func {
	return append([]metafunc.Func(nil), s.funcs...)
}

// Describe renders the state in the paper's tuple notation, e.g.
// "(∗, ∗, ∗, id, ∗, x ↦ "k $", id)".
func (s *State) Describe() string {
	var sb strings.Builder
	sb.WriteByte('(')
	for i, f := range s.funcs {
		if i > 0 {
			sb.WriteString(", ")
		}
		switch {
		case f == nil:
			sb.WriteString("∗")
		case metafunc.IsIdentity(f):
			sb.WriteString("id")
		default:
			sb.WriteString(f.String())
		}
	}
	sb.WriteByte(')')
	return sb.String()
}

// undecided returns the undecided attribute indices in ascending order;
// blocking.Result.LeastIndeterminate ranks them (Section 4.3).
func (s *State) undecided() []int {
	var attrs []int
	for a, f := range s.funcs {
		if f == nil {
			attrs = append(attrs, a)
		}
	}
	return attrs
}
