// Package waltest holds the log checks every wal record type shares, so
// the job journal and the catalog journal are held to one property
// instead of two copies of it.
package waltest

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"affidavit/internal/wal"
)

// Replay opens a log holding data the way a store does and returns the
// live records with the length of the prefix the open kept.
func Replay[R any](t testing.TB, data []byte, sc wal.Schema[R]) ([]R, int64) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "log.jsonl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, recs, err := wal.Open(path, sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return recs, fi.Size()
}

// Encode renders recs as log lines, failing on a record sc rejects.
func Encode[R any](t testing.TB, recs []R, sc wal.Schema[R]) []byte {
	t.Helper()
	var out []byte
	for i := range recs {
		if err := sc.Valid(&recs[i]); err != nil {
			t.Fatalf("replay accepted an invalid record %+v: %v", recs[i], err)
		}
		line, err := json.Marshal(recs[i])
		if err != nil {
			t.Fatalf("re-encoding replayed record: %v", err)
		}
		out = append(out, append(line, '\n')...)
	}
	return out
}

// FixedPoint is the fuzz property: replay never panics or accepts an
// invalid record on arbitrary bytes, and whatever it accepts re-encodes
// to a log that replays whole and to the identical record set. (The first
// replay may normalise, e.g. compact whitespace inside a raw message.)
func FixedPoint[R any](t *testing.T, data []byte, sc wal.Schema[R]) {
	t.Helper()
	recs, _ := Replay(t, data, sc)
	reencoded := Encode(t, recs, sc)
	recs2, keep2 := Replay(t, reencoded, sc)
	if keep2 != int64(len(reencoded)) {
		t.Fatalf("re-encoded log has a corrupt tail: keep=%d len=%d", keep2, len(reencoded))
	}
	if again := Encode(t, recs2, sc); !bytes.Equal(again, reencoded) {
		t.Fatalf("log round-trip diverged:\n%s\nvs\n%s", again, reencoded)
	}
}
