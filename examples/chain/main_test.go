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

// TestChain: the example prints its headline numbers — every step of the warm chain explains cost 6 with 5 aligned records, over one shared pool.
func TestChain(t *testing.T) {
	out := runMain(t)
	for _, want := range []string{
		"core (aligned): 5   deleted: 1   inserted: 1",
		"cost: 6 =",
		"3 attribute dicts, 38 interned values",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}
