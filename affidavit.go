// Package affidavit explains differences between two unaligned snapshots of
// the same database table, reproducing the EDBT 2020 paper "Explaining
// Differences Between Unaligned Table Snapshots" (Fink, Meilicke,
// Stuckenschmidt).
//
// Given a source and a target snapshot under the same schema — with no
// record alignment and possibly rewritten primary keys — Explain searches
// for the minimum-description-length explanation: per-attribute
// transformation functions (identity, casing, constants, numeric
// addition/scaling, masking, trimming, affixing, prefix/suffix replacement,
// value mappings) plus a set of deleted and inserted records, such that the
// surviving "core" of the source maps bijectively onto the target.
//
// Quickstart:
//
//	ex, _ := affidavit.New(affidavit.WithWorkers(8))
//	res, err := ex.ExplainFiles(ctx, "before.csv", "after.csv")
//	if err != nil { ... }
//	fmt.Println(res.Report())          // what changed, as functions
//	fmt.Println(res.SQL("my_table"))   // executable migration script
//	out := res.Transform(unseenRecord) // generalises to unseen records
//
// The Explainer is the package's one front door: construct it from
// functional options (WithAlpha, WithWorkers, WithObserver, …), then reuse
// it for explanations of in-memory tables, streamed Sources, renamed
// schemas and Sessions over snapshot chains. Every entry point takes a
// context; domain experts extend the function library through Meta.
package affidavit

import (
	"io"

	"affidavit/internal/delta"
	"affidavit/internal/metafunc"
	"affidavit/internal/report"
	"affidavit/internal/schemamatch"
	"affidavit/internal/search"
	"affidavit/internal/table"
)

// Table is a snapshot: a schema plus records. Construct with NewTable or
// the CSV readers.
type Table = table.Table

// Record is one value tuple.
type Record = table.Record

// Schema is an ordered attribute tuple.
type Schema = table.Schema

// Explanation is a valid explanation E = (S^{E−}, T^{E+}, F^E) with its
// core alignment.
type Explanation = delta.Explanation

// Stats reports how much work a run performed.
type Stats = search.Stats

// Start selects the search's start-state strategy.
type Start = search.StartStrategy

// Func is an instantiated attribute transformation function. Custom
// implementations must be total (identity outside their domain) and
// deterministic; Params is the function's description length ψ.
type Func = metafunc.Func

// Meta is a family of transformation functions learnable from a single
// input–output example. Domain experts extend Affidavit by implementing
// this interface and passing instances via WithExtraMetas — the Go
// rendition of the paper's "small Java interface" extension point.
type Meta = metafunc.Meta

// Start strategies (Section 4.2 of the paper).
const (
	// StartOverlap bootstraps from overlap-score record matching (Hs).
	StartOverlap = search.StartOverlap
	// StartID assumes one attribute at a time unchanged (Hid, default).
	StartID = search.StartID
	// StartEmpty starts from the all-undecided state (H∅).
	StartEmpty = search.StartEmpty
)

// Result is a finished explanation run.
type Result struct {
	// Explanation holds the learned functions, core alignment, deletions
	// and insertions.
	Explanation *Explanation
	// Cost is the explanation's MDL cost under the configured α.
	Cost float64
	// TrivialCost is the cost of explaining everything as delete+insert;
	// Cost/TrivialCost measures how much structure was found.
	TrivialCost float64
	// Stats reports search effort.
	Stats Stats
	// Trace is the run's structured trace — stage spans with wall times,
	// poll trajectory, spill totals — recorded when the Explainer was
	// built WithTracing; nil otherwise. Wall-clock values live only here,
	// so tracing never perturbs the deterministic outputs.
	Trace *Trace

	alpha float64
}

// Report renders the explanation as a human-readable text report.
func (r *Result) Report() string {
	return report.Text(r.Explanation, delta.CostModel{Alpha: r.alpha})
}

// Diff renders up to limit aligned records as before/after views
// (limit ≤ 0 renders all).
func (r *Result) Diff(limit int) string {
	return report.Diff(r.Explanation, limit)
}

// SQL renders an executable migration script for the named table: one
// generalising UPDATE per transformed attribute plus per-record DELETEs and
// INSERTs for the noise.
func (r *Result) SQL(tableName string) string {
	return report.SQL(r.Explanation, tableName)
}

// Transform applies the learned attribute functions to a record — including
// records that were not part of either snapshot, which is what makes an
// explanation more useful than a diff.
func (r *Result) Transform(rec Record) Record {
	return r.Explanation.Funcs.Apply(rec)
}

// SchemaMatch is an alignment of renamed/reordered target attributes to
// source attributes.
type SchemaMatch = schemamatch.Match

// NewSchema builds a schema from attribute names.
func NewSchema(attrs ...string) (*Schema, error) { return table.NewSchema(attrs...) }

// NewTable builds a table from a schema and rows.
func NewTable(s *Schema, rows []Record) (*Table, error) { return table.FromRows(s, rows) }

// ReadCSV parses a snapshot from CSV (first row = header).
func ReadCSV(r io.Reader) (*Table, error) { return table.ReadCSV(r) }

// ReadCSVFile parses a snapshot from a CSV file.
func ReadCSVFile(path string) (*Table, error) { return table.ReadCSVFile(path) }
