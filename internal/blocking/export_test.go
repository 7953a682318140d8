package blocking

import (
	"affidavit/internal/delta"
	"affidavit/internal/metafunc"
)

// BuildMemo is the apply memo a refinement by (attr, f) reads.
func BuildMemo(co *delta.Coded, attr int, f metafunc.Func) []int32 { return buildMemo(co, attr, f) }

// StringMemo is the same memo built through f.Apply on decoded strings,
// whatever f is.
func StringMemo(co *delta.Coded, attr int, f metafunc.Func) []int32 { return stringMemo(co, attr, f) }

// PureCounts returns the records the result counts in source-only and
// target-only blocks, forcing a lazy result first.
func (r *Result) PureCounts() (src, tgt int) {
	r.force()
	return r.pureS, r.pureT
}
