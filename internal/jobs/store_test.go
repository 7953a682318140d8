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
	"strings"
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

// TestBlobWriterBufferedParts: the spool is buffered, so however an
// upload's reads split it — 1 B, 4 KiB or 1 MiB at a time — Sum, the bytes
// Rewind reads back and the committed blob are those of one write.
func TestBlobWriterBufferedParts(t *testing.T) {
	data := make([]byte, 1<<20+3*blobBufferSize+17)
	for i := range data {
		data[i] = byte(i*7 + i>>9)
	}
	sum := sha256.Sum256(data)
	want := hex.EncodeToString(sum[:])
	for _, part := range []int{1, 4 << 10, 1 << 20} {
		b, err := newBlobStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		w := b.NewWriter()
		for off := 0; off < len(data); off += part {
			if _, err := w.Write(data[off:min(off+part, len(data))]); err != nil {
				t.Fatal(err)
			}
		}
		if w.Sum() != want {
			t.Fatalf("part %d: Sum %s, want %s", part, w.Sum(), want)
		}
		rd, err := w.Rewind()
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := io.ReadAll(rd); !bytes.Equal(got, data) {
			t.Fatalf("part %d: spool read back %d bytes, want the %d written", part, len(got), len(data))
		}
		hash, err := w.Commit()
		if err != nil || hash != want {
			t.Fatalf("part %d: Commit = %s, %v; want %s", part, hash, err, want)
		}
		rc, err := b.Open(hash)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(rc)
		rc.Close()
		if !bytes.Equal(got, data) {
			t.Fatalf("part %d: blob holds %d bytes, want the %d written", part, len(got), len(data))
		}
	}
}

// TestBlobStoreRoundTrip: a writer's spool reads back through Rewind; a
// Commit stores the bytes under their hash (Exists, Open), a second
// Commit of the same bytes is a no-op, and no spool outlives Commit or
// Abort.
func TestBlobStoreRoundTrip(t *testing.T) {
	data := []byte("col\nv1\nv2\n")
	want := sha256.Sum256(data)
	dir := t.TempDir()
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
			t.Fatalf("spool read back %q", got)
		}
		if hashes[i], err = w.Commit(); err != nil {
			t.Fatal(err)
		}
		if hashes[i] != w.Sum() || hashes[i] != hex.EncodeToString(want[:]) {
			t.Fatalf("commit hash %s, Sum %s, want %x", hashes[i], w.Sum(), want)
		}
		if _, err := os.Stat(spool); !os.IsNotExist(err) {
			t.Fatalf("spool %s outlived Commit: %v", spool, err)
		}
	}
	if !b.Exists(hashes[0]) {
		t.Fatal("committed blob does not exist")
	}
	rc, err := b.Open(hashes[0])
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
	if _, err := b.Open("deadbeef"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing blob: %v, want ErrNotExist", err)
	}
	w := b.NewWriter()
	spool := w.tmp.Name()
	w.Write(data)
	w.Abort()
	if _, err := os.Stat(spool); !os.IsNotExist(err) {
		t.Fatalf("spool outlived Abort: %v", err)
	}
}

// TestPrivateDirRemovedAtClose: a store opened without a Dir keeps its
// journal, blobs and results in a fresh directory under os.TempDir, which
// Close removes after closing the journal.
func TestPrivateDirRemovedAtClose(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(s.Dir()) != tmp || !strings.HasPrefix(filepath.Base(s.Dir()), "affidavit-jobs-") {
		t.Fatalf("private dir %s, want an affidavit-jobs-* entry of %s", s.Dir(), tmp)
	}
	w := s.Blobs().NewWriter()
	io.WriteString(w, "a\n1\n")
	if _, err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	j, _, err := s.Submit(Spec{Addr: "addr", Table: "t"})
	if err != nil {
		t.Fatal(err)
	}
	s.complete(j, &Outcome{Body: []byte("body")})
	for _, name := range []string{"journal.jsonl", "results/" + j.ID()} {
		if _, err := os.Stat(filepath.Join(s.Dir(), name)); err != nil {
			t.Errorf("private store keeps no %s: %v", name, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if names, _ := os.ReadDir(tmp); len(names) != 0 {
		t.Errorf("Close left %v in TMPDIR", names)
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
	// Every job is content-addressed: a submission without an address is
	// refused, and catalog steps addressed by distinct snapshot ids get
	// distinct jobs, each named by its snapshot id.
	if j, _, err := s.Submit(Spec{}); err != ErrNoAddr || j != nil {
		t.Fatalf("unaddressed submit: job %v err %v, want ErrNoAddr", j, err)
	}
	const snap1, snap2 = "0123456789abcdef0123456789abcdef", "fedcba9876543210fedcba9876543210"
	w1, created1, err1 := s.Submit(Spec{Addr: snap1, Table: "t1", Kind: "catalog", SnapshotID: snap1})
	w2, created2, err2 := s.Submit(Spec{Addr: snap2, Table: "t1", Kind: "catalog", SnapshotID: snap2})
	if err1 != nil || err2 != nil || !created1 || !created2 {
		t.Fatalf("step submits: created %v %v, err %v %v", created1, created2, err1, err2)
	}
	if w1.ID() != snap1 || w2.ID() != snap2 {
		t.Fatalf("step job ids %s, %s; want their snapshot ids", w1.ID(), w2.ID())
	}
}

// TestPayloadReleasedWhenJobEnds: a job keeps its payload while it can
// still run — across shutdown requeues — and lets go of it
// on every terminal transition, so a finished job does not pin the
// tables it was submitted with.
func TestPayloadReleasedWhenJobEnds(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	start := func(j *Job) {
		t.Helper()
		if _, ok := s.startRun(j, func(error) {}); !ok {
			t.Fatalf("startRun refused job %s", j.ID())
		}
	}
	out := &Outcome{Body: []byte("{}"), ContentType: "application/json"}
	for _, tc := range []struct {
		name string
		end  func(j *Job)
	}{
		{"complete", func(j *Job) { start(j); s.complete(j, out) }},
		{"fail", func(j *Job) { start(j); s.fail(j, "boom", out) }},
		{"failDeadline", func(j *Job) { start(j); s.failDeadline(j, out) }},
		{"cancelDone", func(j *Job) { start(j); s.cancelDone(j, out) }},
		{"cancel pending", func(j *Job) { s.Cancel(j.ID()) }},
	} {
		j, _, _ := s.Submit(Spec{Addr: "addr-" + tc.name, Table: "t", Payload: tc.name})
		for i := 0; i < 2; i++ {
			start(j)
			s.requeue(j)
			if s.payload(j) != tc.name {
				t.Fatalf("%s: payload %v after requeue %d, want it kept", tc.name, s.payload(j), i+1)
			}
		}
		tc.end(j)
		if p := s.payload(j); p != nil {
			t.Errorf("%s: payload %v kept after the job ended", tc.name, p)
		}
		// A cancel edits only the state: the record keeps the requeues
		// before it.
		if rec := j.Record(); rec.State == StateCancelled && rec.Requeues != 2 {
			t.Errorf("%s: %d requeues after the cancel, want 2", tc.name, rec.Requeues)
		}
	}
	// Each ending counts once, under the state it ended in.
	if m := s.Metrics(); m.Completed != 1 || m.Failed != 2 || m.Cancelled != 2 {
		t.Errorf("completed=%d failed=%d cancelled=%d, want 1, 2, 2", m.Completed, m.Failed, m.Cancelled)
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

// TestJoinableNeedsBlobs: a store only lets a submission skip its
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
	s.requeue(b)
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
		s.requeue(j)
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

// TestJournalErrorLatched: a journal write that fails (here the log is
// closed underneath the store) fails no submission. The store keeps
// serving from memory, Metrics names the first failure, and Close
// returns it.
func TestJournalErrorLatched(t *testing.T) {
	s, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics(); m.JournalError != "" {
		t.Fatalf("fresh store reports journal error %q", m.JournalError)
	}
	s.jrnl.Close()
	j, created, err := s.Submit(Spec{Addr: "addr", Table: "t"})
	if err != nil || !created {
		t.Fatalf("submit after a journal failure: created=%v err=%v", created, err)
	}
	if _, ok := s.startRun(j, func(error) {}); !ok {
		t.Fatal("startRun refused the job")
	}
	s.complete(j, &Outcome{Body: []byte("done"), ContentType: "text/plain"})
	if body, rec, err := s.Result(j.ID()); err != nil || string(body) != "done" || rec.State != StateCompleted {
		t.Fatalf("result after a journal failure: %q %s err=%v", body, rec.State, err)
	}
	if _, created, _ := s.Submit(Spec{Addr: "addr", Table: "t"}); created {
		t.Error("a duplicate submission was not deduped after a journal failure")
	}
	m := s.Metrics()
	if !strings.Contains(m.JournalError, "journal.jsonl") {
		t.Errorf("JournalError %q does not name the journal", m.JournalError)
	}
	if m.Submitted != 1 || m.DedupeHits != 1 || m.Completed != 1 {
		t.Errorf("counters after a journal failure: %+v", m)
	}
	if err := s.Close(); err == nil || err.Error() != m.JournalError {
		t.Errorf("Close = %v, want the latched %q", err, m.JournalError)
	}
}
