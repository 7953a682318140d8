package induce_test

import (
	"math/rand"
	"testing"

	"affidavit/internal/blocking"
	"affidavit/internal/datasets"
	"affidavit/internal/gen"
	"affidavit/internal/induce"
)

var benchSink int

// BenchmarkCandidates is the induction layer's own benchmark (ROADMAP 1a):
// one op induces, filters and ranks the β = 2 best candidates of every
// attribute on the root blocking — the call the search makes on its first
// polls, where blocks are coarsest and induction most expensive. flight20k
// is the Figure 5 reference size (one 20 000-record block, 21 attributes);
// uniprot300 is the widest registry schema (182 attributes) at 300 records.
// chain drives one Inducer per op over every attribute of the flight20k
// states of a refinement chain (the root, three reference refinements and
// an identity sibling at each level), as a search does: its example memo
// induces each repeated example once.
func BenchmarkCandidates(b *testing.B) {
	for _, bc := range []struct {
		name, dataset string
		rows          int
	}{
		{"flight20k", "flight-500k", 20000},
		{"uniprot300", "uniprot", 300},
		{"chain", "flight-500k", 20000},
	} {
		b.Run(bc.name, func(b *testing.B) {
			spec, err := datasets.Get(bc.dataset)
			if err != nil {
				b.Fatal(err)
			}
			tab, err := spec.BuildRows(bc.rows, 1)
			if err != nil {
				b.Fatal(err)
			}
			p, err := gen.Generate(tab, gen.Config{Setting: gen.Setting{Eta: 0.3, Tau: 0.3}, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			states := []*blocking.Result{blocking.New(p.Inst)}
			if bc.name == "chain" {
				states = refinementChain(p, 3)
				for _, r := range states {
					r.NumMixed() // split outside the timer
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				in := induce.New(p.Inst.Metas, induce.Defaults)
				for si, r := range states {
					for attr := 0; attr < p.Inst.NumAttrs(); attr++ {
						benchSink += len(in.Candidates(r, attr, 2, rand.New(rand.NewSource(int64(100*si+attr)+1))))
					}
				}
			}
		})
	}
}
