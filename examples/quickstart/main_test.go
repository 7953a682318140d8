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

// TestQuickstart: the example prints its headline numbers — the paper's Figure 1 explanation: cost 77 against the trivial 112, 13 aligned records, 4 deletions and 3 insertions.
func TestQuickstart(t *testing.T) {
	out := runMain(t)
	for _, want := range []string{
		"cost 77 vs trivial 112",
		"core (aligned): 13   deleted: 4   inserted: 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}
