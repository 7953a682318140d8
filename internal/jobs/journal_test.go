package jobs

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
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

// parentStepID is the id the parent's store derived for the fixture's
// catalog step, which it submitted without an address.
const parentStepID = "e97ca325bf8208f26ca79f67e297f2a1"

// scriptJournal drives submit → run → complete → compaction → run on a
// durable store and returns the journal it leaves: two compacted lines
// (the fourth append trips CompactEvery) and the catalog step's running
// line after them. The catalog step is addressed by a 32-hex id, as a
// step's snapshot id is, and so is named by it unchanged.
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
	b, _, _ := s.Submit(Spec{Addr: parentStepID, Table: "tb", Kind: "catalog", SnapshotID: "snap-2", ParentID: "snap-1"})
	s.startRun(b, func(error) {})
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
// later commit must write its lines and replay it. Its writer went on to
// schedule a retry of the catalog step, a fourth line (pending, with the
// failure's error) that no store writes since a failed run ends its job;
// the scripted journal is compared with the file's first three lines.
// The file's catalog step still carries the "warm":true its writer set;
// records no longer have that field, so the written and re-encoded bytes
// are compared with the file minus exactly that token, and the file
// itself must still replay whole. Its writer also submitted the step without an address,
// which Submit now refuses; the scripted step is addressed by the id the
// parent derived, so the written lines also hold exactly one "addr"
// member more.
func TestJournalParentFixture(t *testing.T) {
	got := scriptJournal(t)
	want, err := os.ReadFile("testdata/journal_parent.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	const dropped = `"warm":true,`
	if n := bytes.Count(want, []byte(dropped)); n != 3 {
		t.Fatalf("fixture holds %d %s tokens, want the catalog step's 3", n, dropped)
	}
	wantNow := bytes.ReplaceAll(want, []byte(dropped), nil)
	stepSeq := []byte(`"seq":1,`)
	if n := bytes.Count(wantNow, stepSeq); n != 3 {
		t.Fatalf("fixture holds %d %s tokens, want the catalog step's 3", n, stepSeq)
	}
	wantLive := bytes.ReplaceAll(wantNow, stepSeq, []byte(`"seq":1,"addr":"`+parentStepID+`",`))
	liveLines := bytes.SplitAfter(wantLive, []byte("\n"))
	if len(liveLines) != 5 || len(liveLines[4]) != 0 {
		t.Fatalf("fixture holds %d lines, want 4", len(liveLines)-1)
	}
	wantLive = bytes.Join(liveLines[:3], nil)
	if !bytes.Equal(got, wantLive) {
		t.Fatalf("scripted journal differs from the parent's:\n%s\nwant\n%s", got, wantLive)
	}
	// The parent's file replays whole: job a completed, the catalog step
	// back in the queue with the error of its failed run (a pending job
	// that runs once when a pool drains the store), each re-encoding to
	// the very line that won (the compacted first line and the last one).
	recs, keep := waltest.Replay(t, want, journalSchema)
	if keep != int64(len(want)) || len(recs) != 2 {
		t.Fatalf("replayed %d records from %d of %d bytes", len(recs), keep, len(want))
	}
	if a, b := recs[0], recs[1]; a.ID != "addr-a" || a.State != StateCompleted || string(a.Stats) != `{"polls":3}` ||
		b.Seq != 1 || b.State != StatePending || b.Attempts != 1 || b.Error != "transient <&>" || b.SnapshotID != "snap-2" {
		t.Fatalf("replayed records: %+v", recs)
	}
	lines := bytes.SplitAfter(wantNow, []byte("\n"))
	if enc := waltest.Encode(t, recs, journalSchema); !bytes.Equal(enc, append(lines[0], lines[3]...)) {
		t.Fatalf("re-encoded records differ from the parent's lines:\n%s", enc)
	}
}

// TestJournalUnaddressedStepReplays: a journal written before every job
// was content-addressed holds a catalog step without an "addr". A store
// opened on it replays the step under its recorded id, Get finds it, and
// no address joins it.
func TestJournalUnaddressedStepReplays(t *testing.T) {
	want, err := os.ReadFile("testdata/journal_parent.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), want, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j, ok := s.Get(parentStepID)
	if !ok {
		t.Fatalf("replayed store lost the unaddressed step %s", parentStepID)
	}
	if rec := j.Record(); rec.Addr != "" || rec.Kind != "catalog" || rec.SnapshotID != "snap-2" || rec.State != StatePending {
		t.Fatalf("unaddressed step replayed as %+v", rec)
	}
	for _, addr := range []string{"", parentStepID, "snap-2"} {
		if s.Joinable(addr) {
			t.Errorf("Joinable(%q) matched the unaddressed step", addr)
		}
	}
}

// TestJournalPendingErrorRunsOnce: the parent's journal ends with the
// catalog step pending beside the error of an earlier failed run. A pool
// over the replayed store runs it exactly once, and a failure ends it
// with the new error.
func TestJournalPendingErrorRunsOnce(t *testing.T) {
	want, err := os.ReadFile("testdata/journal_parent.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), want, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	p := NewPool(s, func(ctx context.Context, rec Record, payload any) (*Outcome, error) {
		calls.Add(1)
		return nil, errors.New("parent blob gone")
	}, PoolOptions{Workers: 1})
	p.Start(context.Background())
	defer func() { p.Close(); s.Close() }()
	j, ok := s.Get(parentStepID)
	if !ok {
		t.Fatalf("replayed store lost the step %s", parentStepID)
	}
	rec, err := s.Wait(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != StateError || rec.Error != "parent blob gone" || rec.Attempts != 2 {
		t.Fatalf("replayed step ended as %+v, want error after its second attempt", rec)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("runner called %d times, want 1", n)
	}
}
