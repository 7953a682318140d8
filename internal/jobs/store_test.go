package jobs

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestAddressLengthPrefixed(t *testing.T) {
	if Address("ab", "c") == Address("a", "bc") {
		t.Fatal("Address must length-prefix parts; concatenation-equal inputs collided")
	}
	if Address("x") != Address("x") {
		t.Fatal("Address is not deterministic")
	}
}

// TestBlobStoreRoundTrip: a writer's spool reads back through Rewind in
// both modes; a durable Commit stores the bytes under their hash (Exists,
// Open), a second Commit of the same bytes is a no-op, an in-memory
// store retains nothing, and no spool outlives Commit or Abort.
func TestBlobStoreRoundTrip(t *testing.T) {
	data := []byte("col\nv1\nv2\n")
	want := sha256.Sum256(data)
	for _, dir := range []string{"", t.TempDir()} {
		b, err := newBlobStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		var hashes [2]string
		for i := range hashes {
			w := b.NewWriter()
			spool := w.tmp.Name()
			if _, err := w.Write(data); err != nil {
				t.Fatal(err)
			}
			rd, err := w.Rewind()
			if err != nil {
				t.Fatal(err)
			}
			if got, _ := io.ReadAll(rd); !bytes.Equal(got, data) {
				t.Fatalf("spool read back %q (dir=%q)", got, dir)
			}
			if hashes[i], err = w.Commit(); err != nil {
				t.Fatal(err)
			}
			if hashes[i] != w.Sum() || hashes[i] != hex.EncodeToString(want[:]) {
				t.Fatalf("commit hash %s, Sum %s, want %x", hashes[i], w.Sum(), want)
			}
			if _, err := os.Stat(spool); !os.IsNotExist(err) {
				t.Fatalf("spool %s outlived Commit (dir=%q): %v", spool, dir, err)
			}
		}
		if b.Exists(hashes[0]) != (dir != "") {
			t.Fatalf("Exists = %v (dir=%q)", b.Exists(hashes[0]), dir)
		}
		rc, err := b.Open(hashes[0])
		if dir == "" {
			if !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("in-memory Open: %v, want ErrNotExist", err)
			}
		} else {
			if err != nil {
				t.Fatal(err)
			}
			got, _ := io.ReadAll(rc)
			rc.Close()
			if !bytes.Equal(got, data) {
				t.Fatal("blob round-trip mismatch")
			}
			if names, _ := filepath.Glob(filepath.Join(dir, "*")); len(names) != 1 {
				t.Fatalf("blob dir holds %v, want the one blob", names)
			}
		}
		if _, err := b.Open("deadbeef"); err == nil {
			t.Fatal("missing blob did not error")
		}
		w := b.NewWriter()
		spool := w.tmp.Name()
		w.Write(data)
		w.Abort()
		if _, err := os.Stat(spool); !os.IsNotExist(err) {
			t.Fatalf("spool outlived Abort: %v", err)
		}
	}
}

func TestSubmitDedupeAndListOrder(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a, created, err := s.Submit(Spec{Addr: "addr-a", Table: "t1", Format: "json"})
	if err != nil || !created {
		t.Fatalf("first submit: created=%v err=%v", created, err)
	}
	b, created, err := s.Submit(Spec{Addr: "addr-b", Table: "t2", Format: "json"})
	if err != nil || !created {
		t.Fatalf("second submit: created=%v err=%v", created, err)
	}
	a2, created, err := s.Submit(Spec{Addr: "addr-a", Table: "t1", Format: "json"})
	if err != nil {
		t.Fatal(err)
	}
	if created {
		t.Fatal("identical address queued a second computation")
	}
	if a2.ID() != a.ID() {
		t.Fatalf("dedupe returned a different job: %s vs %s", a2.ID(), a.ID())
	}
	m := s.Metrics()
	if m.Submitted != 2 || m.DedupeHits != 1 || m.Queued != 2 {
		t.Fatalf("metrics after dedupe: %+v", m)
	}
	list := s.List()
	if len(list) != 2 || list[0].ID != a.ID() || list[1].ID != b.ID() {
		t.Fatalf("listing not in submission order: %+v", list)
	}
	if list[0].DedupeHits != 1 {
		t.Fatalf("dedupe hit not recorded on the job: %+v", list[0])
	}
	// Unaddressed (warm) submissions never join.
	w1, _, _ := s.Submit(Spec{Table: "t1", Warm: true})
	w2, _, _ := s.Submit(Spec{Table: "t1", Warm: true})
	if w1.ID() == w2.ID() {
		t.Fatal("warm submissions deduped; they must not")
	}
}

func TestResurrectFailedAddress(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Joinable("addr") {
		t.Fatal("an address nobody submitted is joinable")
	}
	j, _, _ := s.Submit(Spec{Addr: "addr", Table: "t"})
	if !s.Joinable("addr") {
		t.Fatal("a pending job is not joinable")
	}
	if _, ok := s.startRun(j, func(error) {}); !ok {
		t.Fatal("startRun refused a pending job")
	}
	s.fail(j, "boom", nil)
	if rec := j.Record(); rec.State != StateError {
		t.Fatalf("state after fail: %s", rec.State)
	}
	if s.Joinable("addr") {
		t.Fatal("a failed job is joinable; its resubmission must bring a payload")
	}
	j2, created, err := s.Submit(Spec{Addr: "addr", Table: "t"})
	if err != nil || !created {
		t.Fatalf("resubmit of failed address: created=%v err=%v", created, err)
	}
	rec := j2.Record()
	if j2 != j || rec.State != StatePending || rec.Error != "" || rec.Attempts != 0 {
		t.Fatalf("failed job not resurrected cleanly: %+v", rec)
	}
	if rec.Seq != 0 {
		t.Fatalf("resurrection must keep the original Seq, got %d", rec.Seq)
	}
}

// TestJoinableNeedsBlobs: a durable store only lets a submission skip its
// ingest when both of the job's blobs are there to replay from.
func TestJoinableNeedsBlobs(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var hashes [2]string
	for i, data := range []string{"a\n1\n", "a\n2\n"} {
		w := s.Blobs().NewWriter()
		io.WriteString(w, data)
		if hashes[i], err = w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.Submit(Spec{Addr: "addr", Table: "t", SourceBlob: hashes[0], TargetBlob: hashes[1]}); err != nil {
		t.Fatal(err)
	}
	if !s.Joinable("addr") {
		t.Fatal("a pending job with both blobs stored is not joinable")
	}
	if err := os.Remove(filepath.Join(s.dir, "blobs", hashes[1])); err != nil {
		t.Fatal(err)
	}
	if s.Joinable("addr") {
		t.Fatal("a job whose target blob is gone is joinable")
	}
}

func TestCancelPendingAndWait(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j, _, _ := s.Submit(Spec{Addr: "addr", Table: "t"})
	if _, err := s.Cancel("nope"); err != ErrNotFound {
		t.Fatalf("cancel of unknown id: %v", err)
	}
	rec, err := s.Cancel(j.ID())
	if err != nil || rec.State != StateCancelled {
		t.Fatalf("cancel pending: %+v err=%v", rec, err)
	}
	// Wait returns immediately on a terminal job.
	got, err := s.Wait(context.Background(), j)
	if err != nil || got.State != StateCancelled {
		t.Fatalf("wait after cancel: %+v err=%v", got, err)
	}
	if m := s.Metrics(); m.Cancelled != 1 || m.Queued != 0 {
		t.Fatalf("metrics after cancel: %+v", m)
	}
}

func TestWaitReleasedByClose(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	j, _, _ := s.Submit(Spec{Addr: "addr", Table: "t"})
	errc := make(chan error, 1)
	go func() {
		_, err := s.Wait(context.Background(), j)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	s.Close()
	select {
	case err := <-errc:
		if err != ErrClosed {
			t.Fatalf("wait released with %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not release the waiter")
	}
	if _, _, err := s.Submit(Spec{Addr: "x"}); err != ErrClosed {
		t.Fatalf("submit after close: %v", err)
	}
}

func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Job A completes with a stored result.
	a, _, _ := s.Submit(Spec{Addr: "addr-a", Table: "ta", Format: "json"})
	if _, ok := s.startRun(a, func(error) {}); !ok {
		t.Fatal("startRun a")
	}
	body := []byte(`{"ok":true}` + "\n")
	s.complete(a, &Outcome{Body: body, ContentType: "application/json", Stats: []byte(`{}`), TraceID: "t-a"})
	// Job B dies mid-run.
	b, _, _ := s.Submit(Spec{Addr: "addr-b", Table: "tb"})
	if _, ok := s.startRun(b, func(error) {}); !ok {
		t.Fatal("startRun b")
	}
	// Job C never started.
	c, _, _ := s.Submit(Spec{Addr: "addr-c", Table: "tc"})
	_ = c
	// Simulate the crash: no Close, no requeue — just reopen the dir.
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer s2.Close()
	list := s2.List()
	if len(list) != 3 {
		t.Fatalf("recovered %d jobs, want 3: %+v", len(list), list)
	}
	if list[0].State != StateCompleted || list[0].TraceID != "t-a" {
		t.Fatalf("completed job lost: %+v", list[0])
	}
	got, _, err := s2.Result(list[0].ID)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("completed result not intact after crash: %q err=%v", got, err)
	}
	if list[1].State != StatePending || list[1].Requeues != 1 {
		t.Fatalf("running job not requeued on recovery: %+v", list[1])
	}
	if list[2].State != StatePending || list[2].Requeues != 0 {
		t.Fatalf("pending job mangled by recovery: %+v", list[2])
	}
	// Sequence numbers continue past the recovered set.
	d, _, _ := s2.Submit(Spec{Addr: "addr-d"})
	if rec := d.Record(); rec.Seq != 3 {
		t.Fatalf("seq after recovery: %d, want 3", rec.Seq)
	}
	// The recovered address index still dedupes.
	if _, created, _ := s2.Submit(Spec{Addr: "addr-a"}); created {
		t.Fatal("completed pair recomputed after recovery instead of deduping")
	}
}

func TestRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s.Submit(Spec{Addr: "addr-a", Table: "t"})
	s.Close()
	path := filepath.Join(dir, "journal.jsonl")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A power cut mid-append leaves a partial line.
	f.WriteString(`{"id":"torn","seq":9,"sta`)
	f.Close()
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	defer s2.Close()
	list := s2.List()
	if len(list) != 1 || list[0].Addr != "addr-a" {
		t.Fatalf("torn tail corrupted recovery: %+v", list)
	}
}

// TestCrashMidTransitionProperty cuts the journal at many byte offsets —
// every prefix must open cleanly (the tail is truncated) and replay to
// jobs whose states are all valid.
func TestCrashMidTransitionProperty(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	a, _, _ := s.Submit(Spec{Addr: "addr-a", Table: "ta"})
	s.startRun(a, func(error) {})
	s.complete(a, &Outcome{Body: []byte("x"), ContentType: "text/plain"})
	b, _, _ := s.Submit(Spec{Addr: "addr-b", Table: "tb"})
	s.startRun(b, func(error) {})
	s.retry(b, "transient", 0)
	s.startRun(b, func(error) {})
	s.fail(b, "permanent", nil)
	c, _, _ := s.Submit(Spec{Addr: "addr-c", Table: "tc"})
	s.Cancel(c.ID())
	s.Close()
	journal, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	valid := map[State]bool{StatePending: true, StateRunning: true, StateCompleted: true, StateError: true, StateCancelled: true}
	for cut := 0; cut <= len(journal); cut += 3 {
		cutDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cutDir, "journal.jsonl"), journal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(Options{Dir: cutDir})
		if err != nil {
			t.Fatalf("cut=%d: open failed: %v", cut, err)
		}
		var lastSeq uint64
		for i, rec := range s2.List() {
			if !valid[rec.State] {
				t.Fatalf("cut=%d: invalid state %q", cut, rec.State)
			}
			// Recovery turns running into pending and completed-without-
			// result into error; it must never leave running behind.
			if rec.State == StateRunning {
				t.Fatalf("cut=%d: running job survived recovery", cut)
			}
			if i > 0 && rec.Seq <= lastSeq {
				t.Fatalf("cut=%d: listing out of order", cut)
			}
			lastSeq = rec.Seq
		}
		s2.Close()
	}
}

func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, CompactEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	j, _, _ := s.Submit(Spec{Addr: "addr", Table: "t"})
	for i := 0; i < 5; i++ {
		s.startRun(j, func(error) {})
		s.retry(j, "again", 0)
	}
	s.startRun(j, func(error) {})
	s.complete(j, &Outcome{Body: []byte("done"), ContentType: "text/plain"})
	s.Close()
	data, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Count(data, []byte("\n"))
	if lines >= 12 {
		t.Fatalf("journal never compacted: %d lines for 12 transitions", lines)
	}
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	list := s2.List()
	if len(list) != 1 || list[0].State != StateCompleted {
		t.Fatalf("compacted journal replayed wrong: %+v", list)
	}
	body, _, err := s2.Result(list[0].ID)
	if err != nil || string(body) != "done" {
		t.Fatalf("result after compaction: %q err=%v", body, err)
	}
}
