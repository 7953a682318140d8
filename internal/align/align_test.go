package align_test

import (
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"affidavit/internal/align"
	"affidavit/internal/blocking"
	"affidavit/internal/datasets"
	"affidavit/internal/delta"
	"affidavit/internal/fixture"
	"affidavit/internal/gen"
	"affidavit/internal/metafunc"
	"affidavit/internal/table"
)

func TestRandomRespectsBlocking(t *testing.T) {
	inst := fixture.Instance()
	r := blocking.New(inst).Refine(fixture.Org, metafunc.Identity{})
	rng := rand.New(rand.NewSource(1))
	pairs := align.Random(r, rng)
	// Every pair's source and target must share the Org value.
	for _, p := range pairs {
		so := inst.Source.Value(int(p.S), fixture.Org)
		to := inst.Target.Value(int(p.T), fixture.Org)
		if so != to {
			t.Errorf("pair (%d,%d) crosses blocks: %q vs %q", p.S, p.T, so, to)
		}
	}
	// Pair count = Σ min(|S_b|, |T_b|) over mixed blocks.
	want := 0
	for i := range r.NumMixed() {
		src, tgt := r.Mixed(i)
		want += min(len(src), len(tgt))
	}
	if len(pairs) != want {
		t.Errorf("pairs = %d, want %d", len(pairs), want)
	}
	// No record reused.
	seenS, seenT := map[int32]bool{}, map[int32]bool{}
	for _, p := range pairs {
		if seenS[p.S] || seenT[p.T] {
			t.Fatalf("record reused in alignment: %+v", p)
		}
		seenS[p.S] = true
		seenT[p.T] = true
	}
}

func TestRandomIsSeedDeterministic(t *testing.T) {
	inst := fixture.Instance()
	r := blocking.New(inst)
	a := align.Random(r, rand.New(rand.NewSource(7)))
	b := align.Random(r, rand.New(rand.NewSource(7)))
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed gave different alignments")
		}
	}
}

func TestGreedyMapMajorityVote(t *testing.T) {
	s := table.MustSchema("v")
	src := table.MustFromRows(s, []table.Record{{"a"}, {"a"}, {"a"}, {"b"}})
	tgt := table.MustFromRows(s, []table.Record{{"x"}, {"x"}, {"y"}, {"z"}})
	inst, err := delta.NewInstance(src, tgt, nil)
	if err != nil {
		t.Fatal(err)
	}
	pairs := []align.Pair{{0, 0}, {1, 1}, {2, 2}, {3, 3}}
	m := align.GreedyMap(inst, pairs, 0)
	// "a" co-occurs with x twice and y once → x wins; "b" with z once.
	if got := m.Apply("a"); got != "x" {
		t.Errorf(`greedy map "a" → %q, want "x"`, got)
	}
	if got := m.Apply("b"); got != "z" {
		t.Errorf(`greedy map "b" → %q, want "z"`, got)
	}
	if m.Len() != 2 || m.Params() != 4 {
		t.Errorf("map shape wrong: len=%d ψ=%d", m.Len(), m.Params())
	}
}

func TestGreedyMapTieBreakDeterministic(t *testing.T) {
	s := table.MustSchema("v")
	src := table.MustFromRows(s, []table.Record{{"a"}, {"a"}})
	tgt := table.MustFromRows(s, []table.Record{{"q"}, {"p"}})
	inst, _ := delta.NewInstance(src, tgt, nil)
	pairs := []align.Pair{{0, 0}, {1, 1}}
	m := align.GreedyMap(inst, pairs, 0)
	if got := m.Apply("a"); got != "p" {
		t.Errorf("tie should break to lexicographically smaller value, got %q", got)
	}
}

func TestComputeOverlapFindsStableColumns(t *testing.T) {
	// On I1, Type and Org are unchanged; overlap matching should pair most
	// sources with a target agreeing on those attributes.
	inst := fixture.Instance()
	ov := align.ComputeOverlap(inst, 100000)
	if len(ov.BestPairs) == 0 {
		t.Fatal("no overlap pairs found")
	}
	attrs := ov.StartAttrs(inst)
	if len(attrs) == 0 {
		t.Fatal("no start attributes")
	}
	has := map[int]bool{}
	for _, a := range attrs {
		has[a] = true
	}
	// Date also survives on most pairs (only 3 of 13 changed), so it may be
	// included; the unchanged Type and Org must be.
	if !has[fixture.Type] || !has[fixture.Org] {
		t.Errorf("StartAttrs = %v, want to include Type(%d) and Org(%d)",
			attrs, fixture.Type, fixture.Org)
	}
	// Never the transformed Unit column (no value survives).
	if has[fixture.Unit] {
		t.Errorf("StartAttrs includes fully transformed Unit: %v", attrs)
	}
}

func TestComputeOverlapThreshold(t *testing.T) {
	// With maxPairs = 0 every shared value is "too frequent": no pairs.
	inst := fixture.Instance()
	ov := align.ComputeOverlap(inst, 0)
	if len(ov.BestPairs) != 0 {
		t.Errorf("threshold 0 still produced %d pairs", len(ov.BestPairs))
	}
	if got := ov.StartAttrs(inst); got != nil {
		t.Errorf("StartAttrs on empty overlap = %v, want nil", got)
	}
}

// constKeyInstance is 50 records sharing one constant value plus a key
// repeating every 26 records, identical in both snapshots.
func constKeyInstance(t *testing.T) *delta.Instance {
	s := table.MustSchema("const", "key")
	var srcRows, tgtRows []table.Record
	for i := 0; i < 50; i++ {
		srcRows = append(srcRows, table.Record{"same", string(rune('a' + i%26))})
		tgtRows = append(tgtRows, table.Record{"same", string(rune('a' + i%26))})
	}
	src := table.MustFromRows(s, srcRows)
	tgt := table.MustFromRows(s, tgtRows)
	inst, err := delta.NewInstance(src, tgt, nil)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// cyclesInstance is 120 records over three columns cycling with periods 7,
// 676 and 5, identical in both snapshots: many targets tie on score.
func cyclesInstance(t *testing.T) *delta.Instance {
	s := table.MustSchema("city", "key", "grp")
	var srcRows, tgtRows []table.Record
	for i := 0; i < 120; i++ {
		city := string(rune('A' + i%7))
		key := string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
		grp := string(rune('0' + i%5))
		srcRows = append(srcRows, table.Record{city, key, grp})
		tgtRows = append(tgtRows, table.Record{city, key, grp})
	}
	src := table.MustFromRows(s, srcRows)
	tgt := table.MustFromRows(s, tgtRows)
	inst, err := delta.NewInstance(src, tgt, nil)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestOverlapIgnoresOverFrequentValues(t *testing.T) {
	// One column shares a single constant value: with a small threshold the
	// quadratic blow-up is skipped and no pairs emerge from that column.
	inst := constKeyInstance(t)
	ov := align.ComputeOverlap(inst, 10)
	// The "const" column (50×50 pairs) is skipped; "key" column groups are
	// small (≤2×2 per letter... actually ~2 sources × 2 targets), so pairs
	// exist but each scores only on "key".
	for i, p := range ov.BestPairs {
		if ov.Scores[i] >= 2 {
			t.Errorf("pair %v scored %d; const column should not contribute",
				p, ov.Scores[i])
		}
	}
}

// pairTableOverlap is the overlap as a pair table: every pair sharing an
// eligible value is scored in one map keyed by (source, target), and the
// per-source argmax is sorted by source. It is quadratic in memory, and
// the oracle ComputeOverlap must reproduce exactly.
func pairTableOverlap(inst *delta.Instance, maxPairs int) *align.Overlap {
	nT := int64(inst.Target.Len())
	coded := inst.Coded()
	scores := make(map[int64]int32)
	for a := 0; a < inst.NumAttrs(); a++ {
		srcByVal := make([][]int32, coded.Base[a])
		for s, c := range coded.Src[a] {
			srcByVal[c] = append(srcByVal[c], int32(s))
		}
		tgtByVal := make([][]int32, coded.Base[a])
		for t, c := range coded.Tgt[a] {
			tgtByVal[c] = append(tgtByVal[c], int32(t))
		}
		for v, ss := range srcByVal {
			ts := tgtByVal[v]
			if len(ss) == 0 || len(ts) == 0 || len(ss)*len(ts) > maxPairs {
				continue
			}
			for _, s := range ss {
				for _, t := range ts {
					scores[int64(s)*nT+int64(t)]++
				}
			}
		}
	}
	best := make(map[int32]align.Pair)
	bestScore := make(map[int32]int32)
	//affidavit:ordered argmax with a total tie-break (score, then smaller target index); result is independent of visit order
	for key, sc := range scores {
		s, t := int32(key/nT), int32(key%nT)
		cur, seen := bestScore[s]
		if !seen || sc > cur || sc == cur && t < best[s].T {
			bestScore[s], best[s] = sc, align.Pair{S: s, T: t}
		}
	}
	srcs := make([]int32, 0, len(best))
	for s := range best {
		srcs = append(srcs, s)
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
	ov := &align.Overlap{}
	for _, s := range srcs {
		ov.BestPairs = append(ov.BestPairs, best[s])
		ov.Scores = append(ov.Scores, int(bestScore[s]))
	}
	return ov
}

// overlapThresholds spans every-value-too-frequent (0, 1), a tight cut
// (10), a loose one (1000) and the paper's default (100000).
var overlapThresholds = []int{0, 1, 10, 1000, 100000}

func checkAgainstPairTable(t *testing.T, inst *delta.Instance) {
	t.Helper()
	for _, maxPairs := range overlapThresholds {
		want := pairTableOverlap(inst, maxPairs)
		if got := align.ComputeOverlap(inst, maxPairs); !reflect.DeepEqual(got, want) {
			t.Errorf("maxPairs=%d: overlap differs from the pair table (%d vs %d pairs)",
				maxPairs, len(got.BestPairs), len(want.BestPairs))
		}
	}
}

// TestComputeOverlapMatchesPairTable: the per-source overlap equals the
// pair table on the Figure 1 fixture, the hand-built instances, and every
// registry dataset (at most 3 000 rows) under two generator seeds, at
// every threshold of overlapThresholds.
func TestComputeOverlapMatchesPairTable(t *testing.T) {
	t.Run("figure1", func(t *testing.T) { checkAgainstPairTable(t, fixture.Instance()) })
	t.Run("const-key", func(t *testing.T) { checkAgainstPairTable(t, constKeyInstance(t)) })
	t.Run("cycles", func(t *testing.T) { checkAgainstPairTable(t, cyclesInstance(t)) })
	for _, spec := range datasets.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range []int64{1, 2} {
				tab, err := spec.BuildRows(min(spec.Rows, 3000), seed)
				if err != nil {
					t.Fatal(err)
				}
				p, err := gen.Generate(tab, gen.Config{Setting: gen.Setting{Eta: 0.3, Tau: 0.3}, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstPairTable(t, p.Inst)
			}
		})
	}
}

// TestComputeOverlapAllocs: on the Figure 5 instance at 20 000 base rows
// (the generator eval.Figure5 runs at seed 1), one ComputeOverlap
// allocates at most twice the bytes of the instance's code columns. A pair
// table allocates hundreds of times that.
func TestComputeOverlapAllocs(t *testing.T) {
	spec, err := datasets.Get("flight-500k")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := spec.BuildRows(20000, 1*31+7)
	if err != nil {
		t.Fatal(err)
	}
	p, err := gen.Generate(tab, gen.Config{Setting: gen.Setting{Eta: 0.3, Tau: 0.3}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	coded := p.Inst.Coded()
	var columns uint64
	for a := range coded.Src {
		columns += 4 * uint64(len(coded.Src[a])+len(coded.Tgt[a]))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ov := align.ComputeOverlap(p.Inst, 100000)
	runtime.ReadMemStats(&after)
	if len(ov.BestPairs) == 0 {
		t.Fatal("no overlap pairs")
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d sources × %d attributes: allocated %d B, code columns %d B (%.2f×)",
		p.Inst.Source.Len(), p.Inst.NumAttrs(), allocated, columns, float64(allocated)/float64(columns))
	if allocated > 2*columns {
		t.Errorf("ComputeOverlap allocated %d B, more than twice the %d B of code columns", allocated, columns)
	}
}
