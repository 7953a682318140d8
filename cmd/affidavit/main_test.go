package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"affidavit"
)

// runCmd runs the command line args in-process and returns its exit code
// and outputs.
func runCmd(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// genIris writes the iris problem instance into a fresh directory.
func genIris(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if code, _, stderr := runCmd(t, "gen", "-dataset", "iris", "-out", dir); code != 0 {
		t.Fatalf("gen exited %d: %s", code, stderr)
	}
	return dir
}

func TestGen(t *testing.T) {
	dir := genIris(t)
	for _, name := range []string{"source.csv", "target.csv", "reference.txt"} {
		if info, err := os.Stat(filepath.Join(dir, name)); err != nil || info.Size() == 0 {
			t.Errorf("gen did not write %s: %v", name, err)
		}
	}
}

// TestExplainJSON checks that the plain explain path prints exactly the
// library's encoding under the default options.
func TestExplainJSON(t *testing.T) {
	dir := genIris(t)
	src, tgt := filepath.Join(dir, "source.csv"), filepath.Join(dir, "target.csv")
	code, stdout, stderr := runCmd(t, "-source", src, "-target", tgt, "-json")
	if code != 0 {
		t.Fatalf("explain exited %d: %s", code, stderr)
	}
	ex, err := affidavit.New()
	if err != nil {
		t.Fatal(err)
	}
	res, err := ex.ExplainFiles(context.Background(), src, tgt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := res.JSON("")
	if err != nil {
		t.Fatal(err)
	}
	if stdout != string(want)+"\n" {
		t.Errorf("explain -json differs from Result.JSON:\n got %.200s\nwant %.200s", stdout, want)
	}
}

func TestTable2(t *testing.T) {
	code, stdout, stderr := runCmd(t, "table2", "-datasets", "iris", "-instances", "1")
	if code != 0 {
		t.Fatalf("table2 exited %d: %s", code, stderr)
	}
	rows := map[string]int{}
	for _, line := range strings.Split(stdout, "\n") {
		if f := strings.Fields(line); len(f) > 2 && f[0] == "iris" {
			rows[f[1]]++
		}
	}
	if rows["Hs"] != 1 || rows["Hid"] != 1 || len(rows) != 2 {
		t.Errorf("table2 printed iris rows %v, want one Hs and one Hid:\n%s", rows, stdout)
	}
}

// TestTable2ScalesOnlyItsDatasets: table2 narrates a rescaling only for
// the datasets it runs — none for iris at the defaults, iris alone once
// -scale-from puts it above the threshold.
func TestTable2ScalesOnlyItsDatasets(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"table2", "-datasets", "iris", "-instances", "1"}, nil},
		{[]string{"table2", "-datasets", "iris", "-instances", "1", "-scale-from", "100", "-scale", "0.5"}, []string{"scaling iris: 150 → 75 rows"}},
	} {
		code, _, stderr := runCmd(t, tc.args...)
		if code != 0 {
			t.Fatalf("%q exited %d: %s", tc.args, code, stderr)
		}
		var got []string
		for _, line := range strings.Split(stderr, "\n") {
			if strings.HasPrefix(line, "scaling ") {
				got = append(got, line)
			}
		}
		if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
			t.Errorf("%q narrated %q, want %q", tc.args, got, tc.want)
		}
	}
}

// TestProgressGoesToStderr: -progress narrates into the stderr writer run
// is handed, so an in-process caller captures it.
func TestProgressGoesToStderr(t *testing.T) {
	dir := genIris(t)
	src, tgt := filepath.Join(dir, "source.csv"), filepath.Join(dir, "target.csv")
	code, _, stderr := runCmd(t, "-source", src, "-target", tgt, "-progress")
	if code != 0 {
		t.Fatalf("explain exited %d: %s", code, stderr)
	}
	for _, prefix := range []string{"ingest source: ", "ingest target: ", "done: "} {
		if !strings.Contains("\n"+stderr, "\n"+prefix) {
			t.Errorf("stderr has no %q line:\n%s", prefix, stderr)
		}
	}
}

func TestRowscale(t *testing.T) {
	code, stdout, stderr := runCmd(t, "rowscale", "-base-rows", "3000", "-factors", "0.5,1.0")
	if code != 0 {
		t.Fatalf("rowscale exited %d: %s", code, stderr)
	}
	if rows := rowsAfter(stdout, "factor"); rows != 2 {
		t.Errorf("rowscale printed %d rows, want 2:\n%s", rows, stdout)
	}
}

func TestAttrscale(t *testing.T) {
	code, stdout, stderr := runCmd(t, "attrscale", "-fd-red-rows", "800")
	if code != 0 {
		t.Fatalf("attrscale exited %d: %s", code, stderr)
	}
	if rows := rowsAfter(stdout, "dataset"); rows != 4 {
		t.Errorf("attrscale printed %d rows, want 4:\n%s", rows, stdout)
	}
}

// rowsAfter counts the lines of out after the line that starts with
// header, or returns -1 when there is no such line.
func rowsAfter(out, header string) int {
	_, table, ok := strings.Cut(out, "\n"+header)
	if !ok {
		return -1
	}
	return strings.Count(strings.TrimSpace(table), "\n")
}

func TestBadCommandLineExits2(t *testing.T) {
	for _, args := range [][]string{
		{"bogus"},
		{"rowscale", "-factors", "0.5,x"},
		{"rowscale", "-start", "bogus"},
		{"attrscale", "-start", "bogus"},
		{"-source", "a.csv", "-target", "b.csv", "-start", "bogus"},
		{"-source", "a.csv"},
		{"table2", "-no-such-flag"},
	} {
		if code, _, stderr := runCmd(t, args...); code != 2 || stderr == "" {
			t.Errorf("%q exited %d with stderr %q, want 2 and a message", args, code, stderr)
		}
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("no space left on device") }

// TestUnwritableResultExits1 checks that a result that cannot be written
// to stdout fails the command instead of exiting 0.
func TestUnwritableResultExits1(t *testing.T) {
	dir := genIris(t)
	src, tgt := filepath.Join(dir, "source.csv"), filepath.Join(dir, "target.csv")
	for _, args := range [][]string{
		{"-source", src, "-target", tgt, "-json"},
		{"-source", src, "-target", tgt, "-diff", "2", "-sql", "t"},
		{"gen", "-dataset", "iris", "-out", t.TempDir()},
		{"table2", "-datasets", "iris", "-instances", "1"},
		{"rowscale", "-base-rows", "3000", "-factors", "0.5"},
		{"attrscale", "-fd-red-rows", "800"},
	} {
		var stderr bytes.Buffer
		if code := run(args, failingWriter{}, &stderr); code != 1 || !strings.Contains(stderr.String(), "no space left") {
			t.Errorf("%q to a failing stdout exited %d with stderr %q, want 1 and the write error", args, code, stderr.String())
		}
	}
}

// TestFlagSets pins every command's flags and defaults: each subcommand
// takes exactly the flags of the binary it replaced.
func TestFlagSets(t *testing.T) {
	want := map[string]string{
		"":          "alpha=0.5 beta=0 conf=0.95 diff=0 json=false max-block=100000 pprof= progress=false rho=0 seed=0 source= sql= start=hid target= theta=0.1 trace-out=",
		"gen":       "dataset=iris eta=0.3 out=. rows=0 seed=1 tau=0.3",
		"table2":    "datasets= instances=3 scale=0.1 scale-from=30000 seed=1",
		"rowscale":  "alpha=0.5 base-rows=50000 beta=0 conf=0.95 factors=0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0 max-block=100000 pprof= progress=false rho=0 seed=1 start=hid theta=0.1 trace-out=",
		"attrscale": "alpha=0.5 beta=0 conf=0.95 fd-red-rows=25000 max-block=100000 pprof= progress=false rho=0 seed=1 start=hid theta=0.1 trace-out=",
	}
	for name, flags := range want {
		cmd := explain
		if name != "" {
			cmd = subcommands[name]
		}
		fs := flag.NewFlagSet(name, flag.ContinueOnError)
		cmd(fs, io.Discard, io.Discard)
		var got []string
		fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name+"="+f.DefValue) })
		if g := strings.Join(got, " "); g != flags {
			t.Errorf("%q flags:\n got %s\nwant %s", name, g, flags)
		}
	}
	if len(subcommands) != len(want)-1 {
		t.Errorf("%d subcommands, want %d", len(subcommands), len(want)-1)
	}
}
