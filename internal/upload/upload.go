// Package upload is the one way multipart snapshot uploads enter the
// daemon, shared by POST /explain and the catalog's snapshot push. An
// upload is taken in two steps: Spool streams every file part through the
// byte cap into a blob-store spool — hashed, on disk, never held whole in
// memory — and collects the small form values; the handler then knows the
// content hashes and decides whether the snapshots need interning at all.
// Ingest interns one from its spool; IngestBlob re-interns a stored blob
// for a job replayed without its submitter. Both intern through a Reader:
// the session's ReadSource when the snapshot will be explained on that
// session (interned once, into its pool), the Explainer's private-dictionary
// read when no session exists yet.
package upload

import (
	"context"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/url"

	"affidavit"
	"affidavit/internal/jobs"
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
	mr, err := r.MultipartReader()
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
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("parsing upload: %w", err)
		}
		if err := b.readPart(part, blobs, files); err != nil {
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
func (b *Body) readPart(part *multipart.Part, blobs *jobs.BlobStore, files []string) error {
	defer part.Close()
	name := part.FormName()
	for _, f := range files {
		if f != name {
			continue
		}
		if prev := b.Files[name]; prev != nil {
			prev.Abort()
		}
		bw := blobs.NewWriter()
		b.Files[name] = bw
		if _, err := io.Copy(bw, capBytes(part, b.lim.SnapshotBytes)); err != nil {
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
// submitter's tables (journal replay, a re-seeded chain). A blob that
// cannot be opened is a transient failure — it may sit on slow or briefly
// unavailable storage, and a retry with backoff is cheaper than failing a
// durable job; one that no longer parses is permanent.
func IngestBlob(ctx context.Context, read Reader, blobs *jobs.BlobStore, hash, role string) (*affidavit.Table, error) {
	rc, err := blobs.Open(hash)
	if err != nil {
		return nil, jobs.Transient(fmt.Errorf("replaying %s upload: %w", role, err))
	}
	defer rc.Close()
	tab, err := read(ctx, affidavit.NewCSVSource(rc), role)
	if err != nil {
		return nil, fmt.Errorf("re-ingesting %s upload: %w", role, err)
	}
	return tab, nil
}

// capBytes errors once more than max bytes flow through it — unlike
// io.LimitReader, which would silently truncate the snapshot at the cap.
// max ≤ 0 passes the reader through unbounded.
func capBytes(r io.Reader, max int64) io.Reader {
	if max <= 0 {
		return r
	}
	return &byteCap{r: r, left: max}
}

type byteCap struct {
	r    io.Reader
	left int64
}

func (c *byteCap) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.left -= int64(n)
	if c.left < 0 {
		return n, fmt.Errorf("snapshot exceeds the byte limit (-max-snapshot); genuinely large snapshots can be served by raising it (they stay resident at 4 bytes per cell; -mem-budget bounds the run's auxiliary memory)")
	}
	return n, err
}

// capRecords bounds a snapshot's record count (max ≤ 0 = unlimited) — the
// backstop against uploads that would intern until OOM.
func capRecords(src affidavit.Source, max int) affidavit.Source {
	if max <= 0 {
		return src
	}
	return &recordCap{Source: src, left: max}
}

type recordCap struct {
	affidavit.Source
	left int
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
