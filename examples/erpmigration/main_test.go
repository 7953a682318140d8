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

// TestERPMigration: the example prints its headline numbers — 320 orders align, 40 are deleted and 40 inserted, at cost 884 — 41% of the trivial cost.
func TestERPMigration(t *testing.T) {
	out := runMain(t)
	for _, want := range []string{
		"core (aligned): 320   deleted: 40   inserted: 40",
		"cost: 884 =",
		"compression: 41% of the trivial",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}
