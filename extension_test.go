package affidavit_test

import (
	"context"
	"strings"
	"testing"

	"affidavit"
	"affidavit/internal/fixture"
)

// reverseFunc is a custom transformation: x ↦ reverse(x), ψ = 0.
type reverseFunc struct{}

func (reverseFunc) Apply(x string) string {
	b := []byte(x)
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
	return string(b)
}
func (reverseFunc) Params() int    { return 0 }
func (reverseFunc) Key() string    { return "x-reverse" }
func (reverseFunc) String() string { return "x ↦ reverse(x)" }

// reverseMeta induces reverseFunc from examples showing a reversal.
type reverseMeta struct{}

func (reverseMeta) Name() string { return "reverse" }

func (reverseMeta) Induce(in, out string) []affidavit.Func {
	if in == out {
		return nil
	}
	if (reverseFunc{}).Apply(in) == out {
		return []affidavit.Func{reverseFunc{}}
	}
	return nil
}

// TestExtraMetas exercises the paper's extension point ("administrators …
// customize Affidavit by adding further meta functions via implementation
// of a small … interface"): a column transformed by string reversal is
// inexplicable by the built-in library (it degrades to a value mapping),
// but with the custom meta the search learns the ψ=0 reversal.
func TestExtraMetas(t *testing.T) {
	schema, err := affidavit.NewSchema("code", "group")
	if err != nil {
		t.Fatal(err)
	}
	var srcRows, tgtRows []affidavit.Record
	codes := []string{"alpha", "bravo", "charlie", "delta", "echo1",
		"fox", "golf", "hotel", "india", "julia", "kilo1", "lima2"}
	groups := []string{"g1", "g2", "g3"}
	for i, c := range codes {
		srcRows = append(srcRows, affidavit.Record{c, groups[i%3]})
		tgtRows = append(tgtRows, affidavit.Record{(reverseFunc{}).Apply(c), groups[i%3]})
	}
	src, err := affidavit.NewTable(schema, srcRows)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := affidavit.NewTable(schema, tgtRows)
	if err != nil {
		t.Fatal(err)
	}

	// Without the custom meta the best explanation pays for a mapping.
	resPlain := explainWith(t, src, tgt, affidavit.WithSeed(4))
	resCustom := explainWith(t, src, tgt, affidavit.WithSeed(4), affidavit.WithExtraMetas(reverseMeta{}))
	if resCustom.Cost >= resPlain.Cost {
		t.Errorf("custom meta did not help: %v vs %v", resCustom.Cost, resPlain.Cost)
	}
	if resCustom.Cost != 0 {
		t.Errorf("reversal explains everything at cost 0, got %v\n%s",
			resCustom.Cost, resCustom.Report())
	}
	if !strings.Contains(resCustom.Report(), "reverse") {
		t.Error("report does not mention the custom function")
	}
}

// TestExplainRenamed drives the future-work schema-matching pipeline
// through the public API on the Figure 1 instance with opaque, shuffled
// target attribute names.
func TestExplainRenamed(t *testing.T) {
	s, _ := affidavit.NewSchema("ID1", "ID2", "Date", "Type", "Val", "Unit", "Org")
	src, err := affidavit.NewTable(s, fixture.SourceRows())
	if err != nil {
		t.Fatal(err)
	}
	perm := []int{fixture.Unit, fixture.Org, fixture.ID1, fixture.Date,
		fixture.Type, fixture.ID2, fixture.Val}
	renamed, _ := affidavit.NewSchema("a", "b", "c", "d", "e", "f", "g")
	var rows []affidavit.Record
	for _, r := range fixture.TargetRows() {
		rows = append(rows, r.Project(perm))
	}
	tgt, err := affidavit.NewTable(renamed, rows)
	if err != nil {
		t.Fatal(err)
	}
	ex := newExplainer(t, affidavit.WithSeed(1))
	res, match, err := ex.ExplainRenamed(context.Background(), src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if match.ByName {
		t.Error("opaque names matched by name?")
	}
	if res.Cost != fixture.ReferenceCost {
		t.Errorf("cost through renamed pipeline = %v, want %d", res.Cost, fixture.ReferenceCost)
	}
	// Mismatched arity propagates an error.
	tiny, _ := affidavit.NewSchema("only")
	tt, _ := affidavit.NewTable(tiny, []affidavit.Record{{"x"}})
	if _, _, err := ex.ExplainRenamed(context.Background(), src, tt); err == nil {
		t.Error("arity mismatch accepted")
	}
}

// TestExplainRenamedContext: the renamed-schema pipeline honours
// cancellation like every other entry point (the ctxflow analyzer's
// contract — cooperative: an interrupted run returns the partial result
// with Stats.Cancelled set), and an uninterrupted run under a live context
// finishes with the reference explanation.
func TestExplainRenamedContext(t *testing.T) {
	s, _ := affidavit.NewSchema("ID1", "ID2", "Date", "Type", "Val", "Unit", "Org")
	src, err := affidavit.NewTable(s, fixture.SourceRows())
	if err != nil {
		t.Fatal(err)
	}
	renamed, _ := affidavit.NewSchema("a", "b", "c", "d", "e", "f", "g")
	tgt, err := affidavit.NewTable(renamed, fixture.TargetRows())
	if err != nil {
		t.Fatal(err)
	}
	ex := newExplainer(t, affidavit.WithSeed(1))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	interrupted, _, err := ex.ExplainRenamed(ctx, src, tgt)
	if err != nil {
		t.Fatalf("cancelled context: err = %v, want partial result", err)
	}
	if !interrupted.Stats.Cancelled {
		t.Error("cancelled context: Stats.Cancelled not set — ctx did not reach the search")
	}

	res, _, err := ex.ExplainRenamed(context.Background(), src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cancelled || res.Cost != fixture.ReferenceCost {
		t.Errorf("live context: cancelled=%v cost=%v, want a finished run at %d",
			res.Stats.Cancelled, res.Cost, fixture.ReferenceCost)
	}
}
