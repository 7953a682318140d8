package induce_test

import (
	"math/rand"
	"reflect"
	"testing"

	"affidavit/internal/blocking"
	"affidavit/internal/datasets"
	"affidavit/internal/gen"
	"affidavit/internal/induce"
	"affidavit/internal/metafunc"
)

// memoProblem generates the test problem of one registry dataset at up to
// rows records.
func memoProblem(t *testing.T, name string, rows int, seed int64) *gen.Problem {
	t.Helper()
	spec, err := datasets.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := spec.BuildRows(min(rows, spec.Rows), seed)
	if err != nil {
		t.Fatal(err)
	}
	p, err := gen.Generate(tab, gen.Config{Setting: gen.Setting{Eta: 0.3, Tau: 0.3}, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// refinementChain returns the states a search walks through: the root,
// then the root refined by one more reference function (explicit value
// mappings and the key skipped) per level, up to levels deep, each level
// with a sibling refined by the identity instead.
func refinementChain(p *gen.Problem, levels int) []*blocking.Result {
	cur := blocking.New(p.Inst)
	states := []*blocking.Result{cur}
	for a, f := range p.Reference.Funcs {
		if len(states) > 2*levels {
			break
		}
		if _, isMap := f.(*metafunc.Mapping); a == p.KeyAttr || isMap {
			continue
		}
		states = append(states, cur.Refine(a, metafunc.Identity{}))
		cur = cur.Refine(a, f)
		states = append(states, cur)
	}
	return states
}

// TestInducerMemoMatchesFresh drives one Inducer over the states and
// attributes of a refinement chain, as a search does, and then over a
// second instance: every candidate list — Func key, Generated, Overlap,
// Score and order — must equal a fresh Inducer's on the same call. Going
// back over the chain must find every kept example memoised. The root
// blocks of the wide flight instance hold more than k distinct source
// values, so their examples are induced without being kept; a low cap on
// the source values per block keeps them all.
func TestInducerMemoMatchesFresh(t *testing.T) {
	metas := metafunc.DefaultMetas()
	capped := induce.Defaults
	capped.MaxSourceValuesPerBlock = 40
	var (
		shared *induce.Inducer
		cfg    induce.Config
	)
	for _, tc := range []struct {
		dataset string
		rows    int
		cfg     induce.Config
	}{
		{"flight-1k", 300, induce.Defaults},
		{"adult", 400, induce.Defaults},
		{"abalone", 400, induce.Defaults},
		{"flight-1k", 300, capped},
	} {
		// One Inducer serves every instance of one configuration in turn.
		if shared == nil || tc.cfg != cfg {
			shared, cfg = induce.New(metas, tc.cfg), tc.cfg
		}
		p := memoProblem(t, tc.dataset, tc.rows, 1)
		states := refinementChain(p, 3)
		check := func(pass string) {
			t.Helper()
			for si, r := range states {
				// At most 12 attributes per state, spread over wide schemas.
				for attr := 0; attr < p.Inst.NumAttrs(); attr += (p.Inst.NumAttrs() + 11) / 12 {
					seed := int64(100*si + attr + 1)
					got := describe(shared.Candidates(r, attr, 0, rand.New(rand.NewSource(seed))))
					want := describe(induce.New(metas, tc.cfg).Candidates(r, attr, 0, rand.New(rand.NewSource(seed))))
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %s: state %d attr %d: memoised %q, fresh %q", tc.dataset, pass, si, attr, got, want)
					}
				}
			}
		}
		check("first pass")
		seen := shared.MemoExamples()
		if seen == 0 {
			t.Fatalf("%s: nothing memoised", tc.dataset)
		}
		check("second pass")
		if n := shared.MemoExamples(); n != seen {
			t.Fatalf("%s: the second pass memoised %d more examples", tc.dataset, n-seen)
		}
		t.Logf("%s (cap %d): %d states, %d examples memoised", tc.dataset, tc.cfg.MaxSourceValuesPerBlock, len(states), seen)
	}
}
