package induce_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"affidavit/internal/blocking"
	"affidavit/internal/delta"
	"affidavit/internal/induce"
	"affidavit/internal/metafunc"
	"affidavit/internal/table"
)

// prefixedPair builds a one-attribute pair: n source values "1".."n", of
// which every third has no counterpart, and the rest reappear as "Z<v>".
func prefixedPair(t *testing.T, n int, dicts []*table.Dict) *delta.Instance {
	t.Helper()
	s := table.MustSchema("v")
	var srcRows, tgtRows []table.Record
	for i := 1; i <= n; i++ {
		srcRows = append(srcRows, table.Record{value(i)})
		if i%3 != 0 {
			tgtRows = append(tgtRows, table.Record{"Z" + value(i)})
		}
	}
	src, tgt := table.MustFromRows(s, srcRows), table.MustFromRows(s, tgtRows)
	var inst *delta.Instance
	var err error
	if dicts != nil {
		inst, err = delta.NewInstanceWithDicts(src, tgt, nil, dicts)
	} else {
		inst, err = delta.NewInstance(src, tgt, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// describe renders candidates as "Generated Overlap Score Key", the form
// the golden file and the pinned expectations use.
func describe(cands []induce.Candidate) []string {
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = fmt.Sprintf("%d %d %d %s", c.Generated, c.Overlap, c.Score, c.Func.Key())
	}
	return out
}

// TestCandidatesOutputInternedAfterBase: an earlier refinement's apply memo
// interns x ↦ "Z"◦x of every source value, so for the deleted third of the
// sources the candidate's output is found in the dictionary under a code
// ≥ Base. Ranking must score those as "not a snapshot value" — exactly as
// on an instance where nothing was refined — and never index a Base-sized
// array with them.
func TestCandidatesOutputInternedAfterBase(t *testing.T) {
	plain := prefixedPair(t, 90, nil)
	want := describe(induce.Candidates(blocking.New(plain), 0, plain.Metas, induce.Defaults, 0, rngFor(3)))

	inst := prefixedPair(t, 90, nil)
	root := blocking.New(inst)
	root.Refine(0, metafunc.Prefix{Y: "Z"}).NumMixed()
	co := inst.Coded()
	if c, ok := co.Dicts[0].Lookup("Z3"); !ok || c < co.Base[0] {
		t.Fatalf("setup: Z3 has code %d (found %v), want one ≥ Base = %d", c, ok, co.Base[0])
	}
	got := describe(induce.Candidates(root, 0, inst.Metas, induce.Defaults, 0, rngFor(3)))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ranking changed after a refinement interned candidate outputs:\n got %q\nwant %q", got, want)
	}
	if len(got) == 0 || got[0] != "60 60 59 prefix:1:Z" {
		t.Errorf("top candidate = %q, want the prefix with overlap 60", got)
	}
}

// TestCandidatesPooledDictionary: a warm session's pooled dictionary has
// interned thousands of values this pair never uses, so Base far exceeds
// the pair's present codes and the pair's codes are scattered. Candidates
// must not depend on code numbering.
func TestCandidatesPooledDictionary(t *testing.T) {
	plain := prefixedPair(t, 90, nil)
	want := describe(induce.Candidates(blocking.New(plain), 0, plain.Metas, induce.Defaults, 0, rngFor(3)))

	pool := table.NewDict()
	for i := 0; i < 20000; i++ {
		pool.Code("Z" + value(7*i+1)) // overlaps some pair values, in another order
	}
	inst := prefixedPair(t, 90, []*table.Dict{pool})
	if co := inst.Coded(); int(co.Base[0]) < 20000 || len(co.SrcPresent[0]) > 150 {
		t.Fatalf("setup: Base = %d, present = %d", co.Base[0], len(co.SrcPresent[0]))
	}
	got := describe(induce.Candidates(blocking.New(inst), 0, inst.Metas, induce.Defaults, 0, rngFor(3)))
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ranking depends on the dictionary's history:\n got %q\nwant %q", got, want)
	}
}

// TestCandidatesThetaZero: θ = 0 is honoured — the induction sample falls
// to the MinGenerated floor and the Cochran sample is empty, so every
// overlap is 0 and the score is −ψ.
func TestCandidatesThetaZero(t *testing.T) {
	inst := prefixedPair(t, 90, nil)
	cfg := induce.Defaults
	cfg.Theta = 0
	cands := induce.Candidates(blocking.New(inst), 0, inst.Metas, cfg, 0, rngFor(3))
	if len(cands) == 0 {
		t.Fatal("no candidates at θ = 0")
	}
	for _, c := range cands {
		if c.Overlap != 0 || c.Score != -c.Func.Params() || c.Generated > cfg.MinGenerated {
			t.Errorf("%s: generated %d overlap %d score %d, want ≤ %d, 0, %d",
				c.Func.Key(), c.Generated, c.Overlap, c.Score, cfg.MinGenerated, -c.Func.Params())
		}
	}
}

// TestCandidatesCapShuffleDraws: one block with more distinct source values
// than MaxSourceValuesPerBlock. The capping shuffle sits between the target
// sample and the Cochran sample, so which values survive the cap and where
// the rng stands afterwards are both part of the byte-identity contract.
// The expectations were recorded on the map-based implementation.
func TestCandidatesCapShuffleDraws(t *testing.T) {
	inst := prefixedPair(t, 1200, nil)
	cfg := induce.Defaults
	cfg.MaxSourceValuesPerBlock = 100
	rng := rand.New(rand.NewSource(13))
	got := describe(induce.Candidates(blocking.New(inst), 0, inst.Metas, cfg, 4, rng))
	want := []string{"9 800 799 prefix:1:Z"} // 9 of the 91 sampled targets kept their source value
	if !reflect.DeepEqual(got, want) {
		t.Errorf("candidates under the cap:\n got %q\nwant %q", got, want)
	}
	if next := rng.Int63(); next != 7187085026846743231 {
		t.Errorf("rng stands at %d after the call — a shuffle drew differently", next)
	}
}
