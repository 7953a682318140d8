package catalog

import (
	"affidavit"
	"affidavit/internal/report"
)

// SummarizeStep compresses one chain step's explanation into the summary
// journaled with the step: the core/insert/delete mix, how many core
// records actually changed, per-attribute churn for every non-identity
// function, and the MDL compression achieved. Everything here derives
// from the deterministic explanation, so the journaled summary is as
// byte-stable as the explanation itself.
func SummarizeStep(res *affidavit.Result) *StepSummary {
	e := res.Explanation
	attrs := e.Inst.NumAttrs()
	changedPerAttr := make([]int, attrs)
	updates := 0
	// Both snapshots are interned into one dictionary per attribute, so two
	// cells hold equal values exactly when their codes are equal.
	co := e.Inst.Coded()
	for i := range e.CoreSrc {
		si, ti := e.CoreSrc[i], e.CoreTgt[i]
		rowChanged := false
		for a := 0; a < attrs; a++ {
			if co.Src[a][si] != co.Tgt[a][ti] {
				changedPerAttr[a]++
				rowChanged = true
			}
		}
		if rowChanged {
			updates++
		}
	}
	compression := 0.0 // as Result.JSON reports it: 0 when the trivial cost is 0
	if res.TrivialCost > 0 {
		compression = res.Cost / res.TrivialCost
	}
	sum := &StepSummary{
		Records:       e.Inst.Target.Len(),
		Core:          len(e.CoreSrc),
		Updates:       updates,
		Inserts:       len(e.Inserted),
		Deletes:       len(e.Deleted),
		Cost:          res.Cost,
		TrivialCost:   res.TrivialCost,
		Compression:   compression,
		Polls:         res.Stats.Polls,
		WarmEscalated: res.Stats.WarmEscalated,
	}
	for a, f := range report.Functions(e) {
		if f.Kind == "identity" {
			continue
		}
		sum.Functions = append(sum.Functions, StepFunction{
			Attribute: f.Attribute,
			Kind:      f.Kind,
			Display:   f.Display,
			Updated:   changedPerAttr[a],
		})
	}
	return sum
}
