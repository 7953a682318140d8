// Package upload is the one way multipart snapshot uploads enter the
// daemon, shared by POST /explain and the catalog's snapshot push. An
// upload is taken in two steps: Spool streams every file part through the
// byte cap into a blob-store spool — hashed, on disk, never held whole in
// memory, each byte scanned once for the part delimiter by the
// package's own multipart reader — and collects the small form values;
// the handler then knows the content hashes and decides whether the
// snapshots need interning at all.
// Ingest interns one from its spool; IngestBlob re-interns a stored blob
// for a job that runs without its submitter, and a blob that is gone
// fails that run. Both intern through a Reader:
// the session's ReadSource when the snapshot will be explained on that
// session (interned once, into its pool), the Explainer's private-dictionary
// read when no session exists yet.
package upload

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"affidavit"
	"affidavit/internal/jobs"
	"affidavit/internal/table"
)

// maxFormFields bounds how many non-file parts one upload may carry, so a
// body of endless small parts cannot grow the form map without limit.
const maxFormFields = 64

// Limits bounds one upload.
type Limits struct {
	// FieldBytes caps each non-file form value.
	FieldBytes int64
	// SnapshotBytes caps each file part's raw byte volume (≤ 0 =
	// unlimited).
	SnapshotBytes int64
	// Records caps each snapshot's record count at ingest (≤ 0 =
	// unlimited).
	Records int
}

// Body is one spooled upload. The caller owns the spools: each ends with
// its Commit (or Abort), and Discard aborts whatever is left.
type Body struct {
	// Files holds each file part's spool under its form name.
	Files map[string]*jobs.BlobWriter

	form  map[string]string
	query url.Values
	lim   Limits
}

// Spool reads r's multipart body: the parts named in files are spooled
// into blobs, every other part is kept as a form value. Parts may arrive
// in any order; a file part sent twice keeps the last. On error nothing
// stays spooled.
func Spool(r *http.Request, blobs *jobs.BlobStore, lim Limits, files ...string) (*Body, error) {
	mr, err := newMultipartReader(r)
	if err != nil {
		return nil, fmt.Errorf("parsing upload: %w", err)
	}
	b := &Body{
		Files: make(map[string]*jobs.BlobWriter, len(files)),
		form:  make(map[string]string),
		query: r.URL.Query(),
		lim:   lim,
	}
	spooled := false
	defer func() {
		if !spooled {
			b.Discard()
		}
	}()
	for {
		name, part, err := mr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("parsing upload: %w", err)
		}
		if err := b.readPart(name, part, blobs, files); err != nil {
			return nil, err
		}
	}
	for _, name := range files {
		if b.Files[name] == nil {
			return nil, fmt.Errorf("missing %q file", name)
		}
	}
	spooled = true
	return b, nil
}

// readPart spools a file part or collects a form value.
func (b *Body) readPart(name string, part io.Reader, blobs *jobs.BlobStore, files []string) error {
	for _, f := range files {
		if f != name {
			continue
		}
		if prev := b.Files[name]; prev != nil {
			prev.Abort()
		}
		bw := blobs.NewWriter()
		b.Files[name] = bw
		if _, err := io.Copy(capBytes(bw, b.lim.SnapshotBytes), part); err != nil {
			return fmt.Errorf("reading %q file: %w", name, err)
		}
		return nil
	}
	if len(b.form) >= maxFormFields {
		return fmt.Errorf("too many form fields (limit %d)", maxFormFields)
	}
	v, err := io.ReadAll(io.LimitReader(part, b.lim.FieldBytes+1))
	if err != nil {
		return fmt.Errorf("reading field %q: %w", name, err)
	}
	if int64(len(v)) > b.lim.FieldBytes {
		return fmt.Errorf("field %q exceeds %d bytes", name, b.lim.FieldBytes)
	}
	b.form[name] = string(v)
	return nil
}

// Value returns the request's value for key. Query values win over form
// parts, so ?table=x addresses the same job wherever the part arrives.
func (b *Body) Value(key string) string {
	if v := b.query.Get(key); v != "" {
		return v
	}
	return b.form[key]
}

// Reader drains a source into a table, labelling its ingest events:
// (*affidavit.Session).ReadSource, or the Explainer's labelled read.
type Reader func(ctx context.Context, src affidavit.Source, label string) (*affidavit.Table, error)

// Ingest interns the spooled file part name under the record cap. Ingest
// events go to the observer attached to ctx.
func (b *Body) Ingest(ctx context.Context, read Reader, name string) (*affidavit.Table, error) {
	rd, err := b.Files[name].Rewind()
	if err != nil {
		return nil, fmt.Errorf("reading %q file: %w", name, err)
	}
	tab, err := read(ctx, capRecords(affidavit.NewCSVSource(rd), b.lim.Records), name)
	if err != nil {
		return nil, fmt.Errorf("reading %q file: %w", name, err)
	}
	return tab, nil
}

// Discard aborts every spool that was not committed.
func (b *Body) Discard() {
	for _, bw := range b.Files {
		bw.Abort()
	}
}

// IngestBlob re-interns a stored upload for a job that runs without its
// submitter's tables (journal replay, a re-seeded chain). A blob that is
// gone from the store's directory or no longer parses fails the run.
func IngestBlob(ctx context.Context, read Reader, blobs *jobs.BlobStore, hash, role string) (*affidavit.Table, error) {
	rc, err := blobs.Open(hash)
	if err != nil {
		return nil, fmt.Errorf("replaying %s upload: %w", role, err)
	}
	defer rc.Close()
	tab, err := read(ctx, affidavit.NewCSVSource(rc), role)
	if err != nil {
		return nil, fmt.Errorf("re-ingesting %s upload: %w", role, err)
	}
	return tab, nil
}

// capBytes errors once more than max bytes are written through it —
// unlike truncating at the cap, which would silently cut the snapshot.
// max ≤ 0 passes the writer through unbounded.
func capBytes(w io.Writer, max int64) io.Writer {
	if max <= 0 {
		return w
	}
	return &byteCap{w: w, left: max}
}

type byteCap struct {
	w    io.Writer
	left int64
}

func (c *byteCap) Write(p []byte) (int, error) {
	c.left -= int64(len(p))
	if c.left < 0 {
		return 0, fmt.Errorf("snapshot exceeds the byte limit (-max-snapshot); genuinely large snapshots can be served by raising it (they stay resident at 4 bytes per cell)")
	}
	return c.w.Write(p)
}

// capRecords bounds a CSV snapshot's record count (max ≤ 0 = unlimited) —
// the backstop against uploads that would intern until OOM.
func capRecords(src affidavit.Source, max int) affidavit.Source {
	if max <= 0 {
		return src
	}
	return &recordCap{Source: src, feed: src.(table.Feeder), left: max}
}

// recordCap is a capped CSV source. It feeds an ingest drain as the CSV
// source does, so a capped upload's rows go straight to codes too.
type recordCap struct {
	affidavit.Source
	feed table.Feeder
	left int
}

// Feed appends the next record to b while the cap allows. At the cap it
// reads one record through Next, which tells a clean end from one record
// too many without appending it.
func (l *recordCap) Feed(b *table.Builder) error {
	if l.left <= 0 {
		_, err := l.Next()
		return err
	}
	if err := l.feed.Feed(b); err != nil {
		return err
	}
	l.left--
	return nil
}

func (l *recordCap) Next() (affidavit.Record, error) {
	rec, err := l.Source.Next()
	if err != nil {
		return nil, err
	}
	// Reject only when a real record arrives past the cap, so a snapshot
	// of exactly max records still ends in a clean EOF.
	if l.left <= 0 {
		return nil, fmt.Errorf("snapshot exceeds the record limit (-max-records)")
	}
	l.left--
	return rec, nil
}
