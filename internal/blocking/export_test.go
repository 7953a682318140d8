package blocking

// PureCounts returns the records the result counts in source-only and
// target-only blocks, forcing a lazy result first.
func (r *Result) PureCounts() (src, tgt int) {
	r.force()
	return r.pureS, r.pureT
}
