// Package baseline holds the reference the heuristic search is checked
// against: Exhaustive, a provably cost-optimal solver for small instances
// that enumerates every induced candidate tuple.
package baseline

import (
	"fmt"

	"affidavit/internal/delta"
	"affidavit/internal/metafunc"
)

// ExhaustiveLimit bounds the candidate-tuple product Exhaustive explores.
const ExhaustiveLimit = 5_000_000

// Exhaustive finds a provably cost-optimal explanation over the function
// space induced from *all* source–target value pairs per attribute (plus
// the identity). It enumerates the full candidate product and is therefore
// only usable on small instances; tests use it to certify the heuristic
// search. Value mappings are not enumerated (as in the search, they are not
// part of the induced space), so the optimum is relative to the induced
// candidates — which suffices for instances whose reference explanation
// uses no mapping.
func Exhaustive(inst *delta.Instance, cm delta.CostModel) (*delta.Explanation, float64, error) {
	d := inst.NumAttrs()
	pools := make([][]metafunc.Func, d)
	product := 1
	for a := 0; a < d; a++ {
		seen := map[string]bool{(metafunc.Identity{}).Key(): true}
		pool := []metafunc.Func{metafunc.Identity{}}
		for s := 0; s < inst.Source.Len(); s++ {
			for t := 0; t < inst.Target.Len(); t++ {
				in := inst.Source.Value(s, a)
				out := inst.Target.Value(t, a)
				for _, f := range metafunc.InduceAll(inst.Metas, in, out) {
					if !seen[f.Key()] {
						seen[f.Key()] = true
						pool = append(pool, f)
					}
				}
			}
		}
		pools[a] = pool
		product *= len(pool)
		if product > ExhaustiveLimit || product < 0 {
			return nil, 0, fmt.Errorf("baseline: candidate product exceeds %d", ExhaustiveLimit)
		}
	}
	var best *delta.Explanation
	bestCost := 0.0
	tuple := make(delta.FuncTuple, d)
	var rec func(a int) error
	rec = func(a int) error {
		if a == d {
			e, err := delta.Build(inst, tuple)
			if err != nil {
				return err
			}
			cost := cm.Cost(e)
			if best == nil || cost < bestCost {
				best, bestCost = e, cost
			}
			return nil
		}
		for _, f := range pools[a] {
			tuple[a] = f
			if err := rec(a + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return nil, 0, err
	}
	return best, bestCost, nil
}
