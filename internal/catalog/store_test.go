package catalog

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"affidavit/internal/jobs"
	"affidavit/internal/wal/waltest"
)

// fakeClock returns a deterministic advancing clock for journaled
// timestamps.
func fakeClock() func() time.Time {
	t := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	return func() time.Time {
		t = t.Add(time.Second)
		return t
	}
}

// buildStore populates a durable store with one table, two snapshots and
// one finished step, returning the journal path.
func buildStore(t *testing.T, dir string) string {
	t.Helper()
	s, err := OpenStore(dir, fakeClock())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("accounts"); err != nil {
		t.Fatal(err)
	}
	snap1, _, hasParent, err := s.AddSnapshot("accounts", "blob-1", "seed", 10, []string{"id", "v"})
	if err != nil || hasParent {
		t.Fatalf("first snapshot: err=%v hasParent=%v", err, hasParent)
	}
	snap2, parent, hasParent, err := s.AddSnapshot("accounts", "blob-2", "etl", 11, []string{"id", "v"})
	if err != nil || !hasParent || parent.SnapshotID != snap1.SnapshotID {
		t.Fatalf("second snapshot: err=%v hasParent=%v parent=%q", err, hasParent, parent.SnapshotID)
	}
	if _, err := s.StartStep("accounts", snap2.SnapshotID, snap1.SnapshotID, "job-1"); err != nil {
		t.Fatal(err)
	}
	if err := s.FinishStep("accounts", snap2.SnapshotID, StepExplained, "", &StepSummary{Records: 11, Core: 9, Updates: 3}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, "catalog.jsonl")
}

// TestStoreReplayRoundTrip: a clean close and reopen replays the full
// state — last line per key wins, so the step reopens explained.
func TestStoreReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	buildStore(t, dir)
	s, err := OpenStore(dir, fakeClock())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg, snaps, steps, ok := s.History("accounts")
	if !ok || reg.Table != "accounts" {
		t.Fatal("replay lost the registration")
	}
	if len(snaps) != 2 || len(steps) != 1 {
		t.Fatalf("replayed %d snapshots, %d steps; want 2, 1", len(snaps), len(steps))
	}
	if steps[0].Status != StepExplained || steps[0].Summary == nil || steps[0].Summary.Updates != 3 {
		t.Errorf("step replayed as %+v", steps[0])
	}
	if snaps[1].ParentID != snaps[0].SnapshotID {
		t.Error("lineage chain broken on replay")
	}
	m := s.Metrics(noJobs)
	if m.Tables != 1 || m.Snapshots != 2 || m.StepsExplained != 1 {
		t.Errorf("metrics after replay: %+v", m)
	}
}

// noJobs is a job lookup that knows no job.
func noJobs(string) (jobs.Record, bool) { return jobs.Record{}, false }

// TestServedStatusCounts: rows and counts read one status. A step the
// catalog still holds as pending is served with its job's state, and the
// /trends counts and the gauges bucket it by that state — a deadline-cut
// or cancelled step counts as failed, not pending forever.
func TestServedStatusCounts(t *testing.T) {
	s, err := OpenStore(t.TempDir(), fakeClock())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Register("t"); err != nil {
		t.Fatal(err)
	}
	states := []jobs.State{jobs.StateError, jobs.StateCancelled, jobs.StateRunning, jobs.StatePending, ""}
	byJob := make(map[string]jobs.Record)
	parent := ""
	for i := 0; i <= len(states); i++ {
		snap, _, _, err := s.AddSnapshot("t", fmt.Sprintf("blob-%d", i), "", 1, []string{"a"})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			id := fmt.Sprintf("job-%d", i)
			if _, err := s.StartStep("t", snap.SnapshotID, parent, id); err != nil {
				t.Fatal(err)
			}
			if st := states[i-1]; st != "" {
				byJob[id] = jobs.Record{ID: id, State: st, Error: "cut"}
			}
		}
		parent = snap.SnapshotID
	}
	lookup := func(id string) (jobs.Record, bool) {
		rec, ok := byJob[id]
		return rec, ok
	}
	reg, snaps, steps, _ := s.History("t")
	tr := ComputeTrends(reg, snaps, steps, lookup)
	var got []string
	for _, row := range tr.Steps {
		got = append(got, row.Status)
	}
	if want := []string{"failed", "cancelled", "running", "queued", "pending"}; !slices.Equal(got, want) {
		t.Errorf("trend rows = %v, want %v", got, want)
	}
	if status, msg := ServedStatus(steps[0], lookup); status != "failed" || msg != "cut" {
		t.Errorf("deadline-cut step served as %q %q", status, msg)
	}
	m := s.Metrics(lookup)
	if tr.StepsFailed != 2 || tr.StepsPending != 3 || m.StepsFailed != 2 || m.StepsPending != 3 || m.StepsExplained != 0 {
		t.Errorf("counts: trends failed=%d pending=%d, metrics %+v", tr.StepsFailed, tr.StepsPending, m)
	}
}

// TestStoreCrashReplayTornTail: a crash mid-append leaves a half-written
// final line; replay must keep every whole line, drop the torn tail, and
// truncate the file so the next append starts clean.
func TestStoreCrashReplayTornTail(t *testing.T) {
	dir := t.TempDir()
	path := buildStore(t, dir)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(whole), "\n"), "\n")
	// The journal holds: table, snap1, snap2, step pending, step explained.
	if len(lines) != 5 {
		t.Fatalf("journal has %d lines, want 5", len(lines))
	}

	// Cut the final line (the explained step) in half: the step must fall
	// back to its pending line, served with the job id that line recorded
	// (journals written before step jobs were addressed by snapshot id).
	half := strings.Join(lines[:4], "") + lines[4][:len(lines[4])/2]
	if err := os.WriteFile(path, []byte(half), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStore(dir, fakeClock())
	if err != nil {
		t.Fatal(err)
	}
	_, snaps, steps, _ := s.History("accounts")
	if len(snaps) != 2 || len(steps) != 1 || steps[0].Status != StepPending || steps[0].JobID != "job-1" {
		t.Fatalf("after torn tail: %d snaps, steps=%+v; want the pending line of job-1 to win", len(snaps), steps)
	}
	// The torn bytes are gone: appending and reopening must not resurrect
	// garbage.
	if _, err := s.StartStep("accounts", snaps[1].SnapshotID, snaps[0].SnapshotID, "job-2"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(dir, fakeClock())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	_, _, steps, _ = s2.History("accounts")
	if len(steps) != 1 || steps[0].JobID != "job-2" {
		t.Errorf("post-truncation append lost: steps=%+v", steps)
	}
}

// TestStepLinesOnlyWhenFinished: a step needs no line before it ends.
// History serves a pushed snapshot's step as pending since the push, run
// by the job its snapshot id names; FinishStep then journals the step as
// its one line, and an unknown snapshot is still an error.
func TestStepLinesOnlyWhenFinished(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, fakeClock())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("t"); err != nil {
		t.Fatal(err)
	}
	var snaps []Record
	for _, blob := range []string{"b1", "b2", "b3"} {
		snap, _, _, err := s.AddSnapshot("t", blob, "", 1, []string{"a"})
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap)
	}
	_, _, steps, _ := s.History("t")
	if len(steps) != 2 {
		t.Fatalf("history has %d steps, want one per snapshot with a parent", len(steps))
	}
	for i, step := range steps {
		snap := snaps[i+1]
		if step.Status != StepPending || step.JobID != snap.SnapshotID || step.SnapshotID != snap.SnapshotID ||
			step.ParentID != snaps[i].SnapshotID || !step.Time.Equal(snap.Time) {
			t.Errorf("step %d = %+v, want pending at its push under job %s", i, step, snap.SnapshotID)
		}
	}
	if m := s.Metrics(noJobs); m.StepsPending != 2 {
		t.Errorf("metrics count %d pending steps, want 2", m.StepsPending)
	}
	summary := &StepSummary{Records: 1, Core: 1}
	if err := s.FinishStep("t", snaps[2].SnapshotID, StepExplained, "", summary); err != nil {
		t.Fatal(err)
	}
	if err := s.FinishStep("t", "no-such-snapshot", StepExplained, "", summary); err == nil {
		t.Error("FinishStep accepted an unknown snapshot")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "catalog.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte("\n")); n != 5 {
		t.Errorf("journal holds %d lines, want 5 (registration, 3 snapshots, 1 explained step):\n%s", n, data)
	}
	s2, err := OpenStore(dir, fakeClock())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	_, _, steps, _ = s2.History("t")
	if len(steps) != 2 || steps[0].Status != StepPending || steps[1].Status != StepExplained ||
		steps[1].JobID != snaps[2].SnapshotID || steps[1].ParentID != snaps[1].SnapshotID || steps[1].Summary == nil {
		t.Errorf("replayed steps = %+v", steps)
	}
}

// TestStoreCrashReplayGarbageTail: a full-line tail of garbage (torn
// write that happened to include a newline) stops the replay at the last
// valid record instead of failing the open.
func TestStoreCrashReplayGarbageTail(t *testing.T) {
	dir := t.TempDir()
	path := buildStore(t, dir)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("{\"kind\":\"nonsense\"}\nnot json at all\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s, err := OpenStore(dir, fakeClock())
	if err != nil {
		t.Fatalf("garbage tail must not fail the open: %v", err)
	}
	defer s.Close()
	_, snaps, steps, ok := s.History("accounts")
	if !ok || len(snaps) != 2 || len(steps) != 1 || steps[0].Status != StepExplained {
		t.Errorf("garbage tail corrupted the replayed state: snaps=%d steps=%+v", len(snaps), steps)
	}
}

// TestStoreValidation: names and sentinel errors, and a store needs a
// directory.
func TestStoreValidation(t *testing.T) {
	if _, err := OpenStore("", nil); err == nil {
		t.Error("OpenStore accepted an empty directory")
	}
	s, err := OpenStore(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, bad := range []string{"", "-leading", "../traversal", "has space", strings.Repeat("x", 129)} {
		if _, err := s.Register(bad); err == nil {
			t.Errorf("Register(%q) accepted an invalid name", bad)
		}
	}
	if _, err := s.Register("ok.name-1"); err != nil {
		t.Errorf("valid name rejected: %v", err)
	}
	if _, err := s.Register("ok.name-1"); err == nil {
		t.Error("duplicate registration accepted")
	}
	if _, _, _, err := s.AddSnapshot("ghost", "b", "", 0, nil); err == nil {
		t.Error("AddSnapshot on unknown table accepted")
	}
}

// TestSnapshotIDDeterminism: ids derive from lineage position, so the
// same push sequence yields the same ids in any process.
func TestSnapshotIDDeterminism(t *testing.T) {
	build := func() []string {
		s, err := OpenStore(t.TempDir(), fakeClock())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := s.Register("t"); err != nil {
			t.Fatal(err)
		}
		var ids []string
		for _, blob := range []string{"b1", "b2", "b3"} {
			snap, _, _, err := s.AddSnapshot("t", blob, "", 1, []string{"id"})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, snap.SnapshotID)
		}
		return ids
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("snapshot id %d differs across identical push sequences", i)
		}
	}
	if a[0] == a[1] || a[1] == a[2] {
		t.Error("distinct pushes share a snapshot id")
	}
}

// TestCatalogParentFixture pins the catalog journal's bytes across
// commits: testdata/catalog_parent.jsonl is what buildStore (register →
// push → push → start → finish, on fakeClock) wrote on the commit before
// the journal moved to internal/wal (hence no -update), and every later
// commit must write the same file and replay it.
func TestCatalogParentFixture(t *testing.T) {
	got, err := os.ReadFile(buildStore(t, t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/catalog_parent.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("scripted catalog journal differs from the parent's:\n%s\nwant\n%s", got, want)
	}
	// The parent's file replays whole to table, two snapshots and the
	// explained step, each re-encoding to the very line that won (every
	// line but the step's superseded pending one).
	recs, keep := waltest.Replay(t, want, journalSchema)
	if keep != int64(len(want)) || len(recs) != 4 {
		t.Fatalf("replayed %d records from %d of %d bytes", len(recs), keep, len(want))
	}
	if step := recs[3]; recs[0].Kind != KindTable || recs[1].Blob != "blob-1" || recs[2].ParentID != recs[1].SnapshotID ||
		step.Kind != KindStep || step.Status != StepExplained || step.Summary == nil || step.Summary.Core != 9 {
		t.Fatalf("replayed records: %+v", recs)
	}
	lines := bytes.SplitAfter(want, []byte("\n"))
	if enc := waltest.Encode(t, recs, journalSchema); !bytes.Equal(enc, bytes.Join(append(lines[:3:3], lines[4]), nil)) {
		t.Fatalf("re-encoded records differ from the parent's lines:\n%s", enc)
	}
}

// FuzzCatalogJournal holds the catalog record to the job journal's
// replay property (see waltest.FixedPoint).
func FuzzCatalogJournal(f *testing.F) {
	seed, err := os.ReadFile("testdata/catalog_parent.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte("{\"kind\":\"step\",\"table\":\"t\",\"snapshot_id\":\"s\"}\n{\"kind\":\"step\",\"table\":\"t\"}\n"))
	f.Add([]byte("not json at all\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		waltest.FixedPoint(t, data, journalSchema)
	})
}

// TestJournalErrorLatched: a journal write that fails (here the log is
// closed underneath the store) fails no registration or push. The store
// keeps serving from memory, Metrics names the first failure, and Close
// returns it.
func TestJournalErrorLatched(t *testing.T) {
	s, err := OpenStore(t.TempDir(), fakeClock())
	if err != nil {
		t.Fatal(err)
	}
	noJobs := func(string) (jobs.Record, bool) { return jobs.Record{}, false }
	if m := s.Metrics(noJobs); m.JournalError != "" {
		t.Fatalf("fresh store reports journal error %q", m.JournalError)
	}
	s.jrnl.Close()
	if _, err := s.Register("accounts"); err != nil {
		t.Fatalf("register after a journal failure: %v", err)
	}
	snap, _, _, err := s.AddSnapshot("accounts", "blob-1", "seed", 10, []string{"id", "v"})
	if err != nil {
		t.Fatalf("push after a journal failure: %v", err)
	}
	if _, snaps, _, ok := s.History("accounts"); !ok || len(snaps) != 1 || snaps[0].SnapshotID != snap.SnapshotID {
		t.Fatalf("history after a journal failure: ok=%v snapshots=%v", ok, snaps)
	}
	m := s.Metrics(noJobs)
	if !strings.Contains(m.JournalError, "catalog.jsonl") {
		t.Errorf("JournalError %q does not name the journal", m.JournalError)
	}
	if m.Tables != 1 || m.Snapshots != 1 {
		t.Errorf("gauges after a journal failure: %+v", m)
	}
	if err := s.Close(); err == nil || err.Error() != m.JournalError {
		t.Errorf("Close = %v, want the latched %q", err, m.JournalError)
	}
}
