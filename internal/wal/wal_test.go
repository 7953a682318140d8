package wal_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"affidavit/internal/wal"
	"affidavit/internal/wal/waltest"
)

type rec struct {
	K string `json:"k"`
	N uint64 `json:"n"`
	V string `json:"v,omitempty"`
}

var schema = wal.Schema[rec]{
	Key: func(r *rec) string { return r.K },
	Seq: func(r *rec) uint64 { return r.N },
	Valid: func(r *rec) error {
		if r.K == "" {
			return os.ErrInvalid
		}
		return nil
	},
}

const (
	a0  = `{"k":"a","n":0}` + "\n"
	b1  = `{"k":"b","n":1}` + "\n"
	a0x = `{"k":"a","n":0,"v":"x"}` + "\n"
)

// TestCrashSuite replays each damaged (or merely unusual) file, checks
// the live set and the prefix the open kept, and then proves the open
// left a log that appends, compacts and reopens cleanly.
func TestCrashSuite(t *testing.T) {
	cases := []struct {
		name string
		file string // "-" = no file at all
		live []rec
		keep int
	}{
		{"missing file", "-", nil, 0},
		{"empty file", "", nil, 0},
		{"clean", a0 + b1, []rec{{K: "a"}, {K: "b", N: 1}}, len(a0 + b1)},
		{"torn tail", a0 + b1[:7], []rec{{K: "a"}}, len(a0)},
		{"missing final newline", a0 + b1[:len(b1)-1], []rec{{K: "a"}}, len(a0)},
		{"garbage tail", a0 + "not json at all\n" + b1, []rec{{K: "a"}}, len(a0)},
		{"invalid record", a0 + `{"n":4}` + "\n" + b1, []rec{{K: "a"}}, len(a0)},
		{"last line wins", a0 + b1 + a0x, []rec{{K: "a", V: "x"}, {K: "b", N: 1}}, len(a0 + b1 + a0x)},
		{"ordered by seq", b1 + a0, []rec{{K: "a"}, {K: "b", N: 1}}, len(b1 + a0)},
		{"seq ties keep file order", `{"k":"z","n":1}` + "\n" + b1, []rec{{K: "z", N: 1}, {K: "b", N: 1}}, 2 * len(b1)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log.jsonl")
			if c.file != "-" {
				if err := os.WriteFile(path, []byte(c.file), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			l, live, err := wal.Open(path, schema)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(live, c.live) {
				t.Fatalf("replayed %+v, want %+v", live, c.live)
			}
			if fi, err := os.Stat(path); err != nil || fi.Size() != int64(c.keep) {
				t.Fatalf("open kept %v bytes (err=%v), want %d", fi.Size(), err, c.keep)
			}

			// Append after truncate: the new line lands on a clean boundary.
			if err := l.Append(rec{K: "new", N: 9}); err != nil {
				t.Fatal(err)
			}
			if l.Appended() != 1 {
				t.Fatalf("Appended() = %d after one append", l.Appended())
			}
			want := append(append([]rec{}, c.live...), rec{K: "new", N: 9})
			reopen := func() []rec {
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				var got []rec
				if l, got, err = wal.Open(path, schema); err != nil {
					t.Fatal(err)
				}
				return got
			}
			if got := reopen(); !reflect.DeepEqual(got, want) {
				t.Fatalf("after append and reopen: %+v, want %+v", got, want)
			}

			// Compact-then-replay equality, and the file is exactly the
			// live records.
			if err := l.Append(rec{K: "new", N: 9, V: "again"}); err != nil {
				t.Fatal(err)
			}
			want[len(want)-1].V = "again"
			if err := l.Compact(want); err != nil {
				t.Fatal(err)
			}
			if l.Appended() != 0 {
				t.Fatalf("Appended() = %d after Compact", l.Appended())
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if enc := waltest.Encode(t, want, schema); !bytes.Equal(data, enc) {
				t.Fatalf("compacted file:\n%s\nwant\n%s", data, enc)
			}
			if err := l.Append(rec{K: "post", N: 10}); err != nil {
				t.Fatal(err)
			}
			want = append(want, rec{K: "post", N: 10})
			if got := reopen(); !reflect.DeepEqual(got, want) {
				t.Fatalf("after compact, append and reopen: %+v, want %+v", got, want)
			}
			l.Close()
			if left, _ := filepath.Glob(filepath.Join(filepath.Dir(path), ".journal-*")); len(left) != 0 {
				t.Fatalf("compaction left temp files: %v", left)
			}
		})
	}
}
