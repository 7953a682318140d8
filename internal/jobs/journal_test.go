package jobs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func writeJournalFile(t testing.TB, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReplayLastLineWins(t *testing.T) {
	lines := [][]byte{}
	for _, rec := range []Record{
		{ID: "a", Seq: 0, State: StatePending},
		{ID: "b", Seq: 1, State: StatePending},
		{ID: "a", Seq: 0, State: StateRunning, Attempts: 1},
		{ID: "a", Seq: 0, State: StateCompleted, Attempts: 1, ContentType: "application/json"},
	} {
		b, _ := json.Marshal(rec)
		lines = append(lines, append(b, '\n'))
	}
	var data []byte
	for _, l := range lines {
		data = append(data, l...)
	}
	recs, keep, err := replayJournal(writeJournalFile(t, data))
	if err != nil {
		t.Fatal(err)
	}
	if keep != int64(len(data)) {
		t.Fatalf("valid prefix %d, want %d", keep, len(data))
	}
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want 2", len(recs))
	}
	if recs[0].ID != "a" || recs[0].State != StateCompleted || recs[0].Attempts != 1 {
		t.Fatalf("last line did not win: %+v", recs[0])
	}
	if recs[1].ID != "b" || recs[1].State != StatePending {
		t.Fatalf("record b mangled: %+v", recs[1])
	}
}

func TestReplayStopsAtCorruptLine(t *testing.T) {
	good, _ := json.Marshal(Record{ID: "a", Seq: 0, State: StatePending})
	data := append(append([]byte{}, good...), '\n')
	data = append(data, []byte("{\"id\":\"b\",\"state\":\"nonsense\"}\n{\"id\":\"c\"")...)
	recs, keep, err := replayJournal(writeJournalFile(t, data))
	if err != nil {
		t.Fatal(err)
	}
	if keep != int64(len(good)+1) {
		t.Fatalf("keep=%d, want %d (stop at the first invalid line)", keep, len(good)+1)
	}
	if len(recs) != 1 || recs[0].ID != "a" {
		t.Fatalf("replay past corruption: %+v", recs)
	}
}

// FuzzJobJournal feeds arbitrary bytes through replay and checks the
// decode round-trip: whatever replay accepts must re-encode to a journal
// that replays to the identical record set (a fixed point), and replay
// must never panic or accept an invalid state.
func FuzzJobJournal(f *testing.F) {
	seedRec, _ := json.Marshal(Record{ID: "a", Seq: 3, State: StateRunning, Attempts: 2})
	f.Add(append(seedRec, '\n'))
	f.Add([]byte("{\"id\":\"x\",\"state\":\"pending\"}\n{\"id\":\"x\",\"state\":\"completed\"}\n"))
	f.Add([]byte("not json at all\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, keep, err := replayJournal(writeJournalFile(t, data))
		if err != nil {
			t.Skip() // I/O-level failure only; nothing to round-trip
		}
		if keep < 0 || keep > int64(len(data)) {
			t.Fatalf("keep=%d out of range [0,%d]", keep, len(data))
		}
		encode := func(recs []Record) []byte {
			var out []byte
			for _, rec := range recs {
				if rec.validate() != nil {
					t.Fatalf("replay accepted an invalid record: %+v", rec)
				}
				line, err := json.Marshal(rec)
				if err != nil {
					t.Fatalf("re-encoding replayed record: %v", err)
				}
				out = append(out, append(line, '\n')...)
			}
			return out
		}
		// encode∘replay must be a fixed point: a journal the store itself
		// wrote replays losslessly. (The first replay may normalise, e.g.
		// compacting whitespace inside the raw stats message.)
		reencoded := encode(recs)
		recs2, keep2, err := replayJournal(writeJournalFile(t, reencoded))
		if err != nil {
			t.Fatalf("replaying re-encoded journal: %v", err)
		}
		if keep2 != int64(len(reencoded)) {
			t.Fatalf("re-encoded journal has a corrupt tail: keep=%d len=%d", keep2, len(reencoded))
		}
		if len(recs2) != len(recs) {
			t.Fatalf("round-trip changed the record count: %d vs %d", len(recs2), len(recs))
		}
		if !reflect.DeepEqual(encode(recs2), reencoded) {
			t.Fatalf("journal round-trip diverged:\n%s\nvs\n%s", encode(recs2), reencoded)
		}
	})
}

var update = flag.Bool("update", false, "rewrite testdata/journal_parent.jsonl from this checkout")

// scriptJournal drives submit → run → complete → compaction → retry on
// a durable store and returns the journal it leaves: two compacted lines
// (the fourth append trips CompactEvery) and two appended after them.
func scriptJournal(t *testing.T) []byte {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, CompactEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, _, _ := s.Submit(Spec{Addr: "addr-a", Table: "ta", Format: "json", SourceBlob: "blob-s", TargetBlob: "blob-t"})
	s.startRun(a, func(error) {})
	s.complete(a, &Outcome{Body: []byte("{}"), ContentType: "application/json", Stats: []byte(`{"polls":3}`), TraceID: "trace-a"})
	b, _, _ := s.Submit(Spec{Table: "tb", Warm: true, Kind: "catalog", SnapshotID: "snap-2", ParentID: "snap-1"})
	s.startRun(b, func(error) {})
	s.retry(b, "transient <&>", 0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestJournalParentFixture pins the journal's bytes across commits:
// testdata/journal_parent.jsonl was recorded by scriptJournal on the
// commit before the journal moved to internal/wal, and every later
// commit must write the same file.
func TestJournalParentFixture(t *testing.T) {
	const fixture = "testdata/journal_parent.jsonl"
	got := scriptJournal(t)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fixture, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("scripted journal differs from the parent's:\n%s\nwant\n%s", got, want)
	}
}
