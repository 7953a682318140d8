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

// TestDedup: the example prints its headline numbers — the 250 redundant copies align and the 60 genuine records are insertions, at cost 802.
func TestDedup(t *testing.T) {
	out := runMain(t)
	for _, want := range []string{
		"core (aligned): 250   deleted: 0   inserted: 60",
		"cost: 802 =",
		"exact separation of redundant and new records",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}
