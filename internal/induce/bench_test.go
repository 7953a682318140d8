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
func BenchmarkCandidates(b *testing.B) {
	for _, bc := range []struct {
		name, dataset string
		rows          int
	}{
		{"flight20k", "flight-500k", 20000},
		{"uniprot300", "uniprot", 300},
	} {
		bc := bc
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
			root := blocking.New(p.Inst)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for attr := 0; attr < p.Inst.NumAttrs(); attr++ {
					benchSink += len(induce.Candidates(root, attr, p.Inst.Metas, induce.Defaults, 2, rand.New(rand.NewSource(int64(attr)+1))))
				}
			}
		})
	}
}
