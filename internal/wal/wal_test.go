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
	z1  = `{"k":"z","n":1}` + "\n"
)

// TestCrashSuite opens each damaged (or merely unusual) file, checks the
// live set and the prefix the open kept, and then proves the open left a
// log that appends, compacts and reopens cleanly.
func TestCrashSuite(t *testing.T) {
	a, b, ax, z := rec{K: "a"}, rec{K: "b", N: 1}, rec{K: "a", V: "x"}, rec{K: "z", N: 1}
	cases := []struct {
		name string
		file string // "-" = no file at all
		live []rec
		keep int
	}{
		{"missing file", "-", nil, 0},
		{"empty file", "", nil, 0},
		{"clean", a0 + b1, []rec{a, b}, len(a0 + b1)},
		{"torn tail", a0 + b1[:7], []rec{a}, len(a0)},
		{"missing final newline", a0 + b1[:len(b1)-1], []rec{a}, len(a0)},
		{"garbage tail", a0 + "not json at all\n" + b1, []rec{a}, len(a0)},
		{"invalid record", a0 + `{"n":4}` + "\n" + b1, []rec{a}, len(a0)},
		{"last line wins", a0 + b1 + a0x, []rec{ax, b}, len(a0 + b1 + a0x)},
		{"ordered by seq", b1 + a0, []rec{a, b}, len(b1 + a0)},
		{"seq ties keep file order", z1 + b1, []rec{z, b}, len(z1 + b1)},
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
				t.Fatalf("open kept %v (err=%v), want %d bytes", fi, err, c.keep)
			}
			// reopen closes the log and replays what it left on disk.
			reopen := func() []rec {
				t.Helper()
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				var got []rec
				if l, got, err = wal.Open(path, schema); err != nil {
					t.Fatal(err)
				}
				return got
			}

			// Append after truncate: the new line lands on a clean boundary.
			if err := l.Append(rec{K: "new", N: 9}); err != nil || l.Appended() != 1 {
				t.Fatalf("append: err=%v, Appended()=%d", err, l.Appended())
			}
			want := append(live[:len(live):len(live)], rec{K: "new", N: 9})
			if got := reopen(); !reflect.DeepEqual(got, want) {
				t.Fatalf("after append and reopen: %+v, want %+v", got, want)
			}

			// Compaction leaves exactly the live records' lines, and the
			// compacted log takes appends and replays like the old one.
			want[len(want)-1].V = "again"
			if err := l.Append(want[len(want)-1]); err != nil {
				t.Fatal(err)
			}
			if err := l.Compact(want); err != nil || l.Appended() != 0 {
				t.Fatalf("compact: err=%v, Appended()=%d", err, l.Appended())
			}
			if data, _ := os.ReadFile(path); !bytes.Equal(data, waltest.Encode(t, want, schema)) {
				t.Fatalf("compacted file:\n%s", data)
			}
			if err := l.Append(rec{K: "post", N: 10}); err != nil {
				t.Fatal(err)
			}
			if got := reopen(); !reflect.DeepEqual(got, append(want, rec{K: "post", N: 10})) {
				t.Fatalf("after compact, append and reopen: %+v", got)
			}
			l.Close()
			if left, _ := filepath.Glob(filepath.Join(filepath.Dir(path), ".journal-*")); len(left) != 0 {
				t.Fatalf("compaction left temp files: %v", left)
			}
		})
	}
}
