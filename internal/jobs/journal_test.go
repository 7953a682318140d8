package jobs

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"affidavit/internal/wal/waltest"
)

func TestReplayLastLineWins(t *testing.T) {
	data := waltest.Encode(t, []Record{
		{ID: "a", Seq: 0, State: StatePending},
		{ID: "b", Seq: 1, State: StatePending},
		{ID: "a", Seq: 0, State: StateRunning, Attempts: 1},
		{ID: "a", Seq: 0, State: StateCompleted, Attempts: 1, ContentType: "application/json"},
	}, journalSchema)
	recs, keep := waltest.Replay(t, data, journalSchema)
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
	good := waltest.Encode(t, []Record{{ID: "a", Seq: 0, State: StatePending}}, journalSchema)
	data := append(good[:len(good):len(good)], "{\"id\":\"b\",\"state\":\"nonsense\"}\n{\"id\":\"c\""...)
	recs, keep := waltest.Replay(t, data, journalSchema)
	if keep != int64(len(good)) {
		t.Fatalf("keep=%d, want %d (stop at the first invalid line)", keep, len(good))
	}
	if len(recs) != 1 || recs[0].ID != "a" {
		t.Fatalf("replay past corruption: %+v", recs)
	}
}

// FuzzJobJournal feeds arbitrary bytes through replay and checks the
// decode round-trip over the real job record (see waltest.FixedPoint).
func FuzzJobJournal(f *testing.F) {
	f.Add(waltest.Encode(f, []Record{{ID: "a", Seq: 3, State: StateRunning, Attempts: 2}}, journalSchema))
	f.Add([]byte("{\"id\":\"x\",\"state\":\"pending\"}\n{\"id\":\"x\",\"state\":\"completed\"}\n"))
	f.Add([]byte("not json at all\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		waltest.FixedPoint(t, data, journalSchema)
	})
}

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
// testdata/journal_parent.jsonl is what scriptJournal wrote on the commit
// before the journal moved to internal/wal (hence no -update), and every
// later commit must write the same file and replay it.
func TestJournalParentFixture(t *testing.T) {
	got := scriptJournal(t)
	want, err := os.ReadFile("testdata/journal_parent.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("scripted journal differs from the parent's:\n%s\nwant\n%s", got, want)
	}
	// The parent's file replays whole: job a completed, the warm step back
	// in the queue with its transient error, each re-encoding to the very
	// line that won (the compacted first line and the last one).
	recs, keep := waltest.Replay(t, want, journalSchema)
	if keep != int64(len(want)) || len(recs) != 2 {
		t.Fatalf("replayed %d records from %d of %d bytes", len(recs), keep, len(want))
	}
	if a, b := recs[0], recs[1]; a.ID != "addr-a" || a.State != StateCompleted || string(a.Stats) != `{"polls":3}` ||
		b.Seq != 1 || b.State != StatePending || b.Attempts != 1 || b.Error != "transient <&>" || b.SnapshotID != "snap-2" {
		t.Fatalf("replayed records: %+v", recs)
	}
	lines := bytes.SplitAfter(want, []byte("\n"))
	if enc := waltest.Encode(t, recs, journalSchema); !bytes.Equal(enc, append(lines[0], lines[3]...)) {
		t.Fatalf("re-encoded records differ from the parent's lines:\n%s", enc)
	}
}
