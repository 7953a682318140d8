package main

import (
	"os"
	"strings"
	"testing"
)

// runMain runs main with stdout captured in a temporary file.
func runMain(t *testing.T) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = stdout }()
	main()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestSATReduction: the example prints its headline numbers — the exact optimum costs 40 and the heuristic search 45 on the same instance.
func TestSATReduction(t *testing.T) {
	out := runMain(t)
	for _, want := range []string{
		"optimal explanation: cost 40,",
		"heuristic search on the same instance: cost 45,",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}
