package induce

// MemoExamples returns the number of examples the Inducer has memoised.
func (in *Inducer) MemoExamples() int {
	n := 0
	for _, m := range in.examples {
		n += len(m)
	}
	return n
}
