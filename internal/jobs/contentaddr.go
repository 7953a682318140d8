package jobs

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"

	"affidavit/internal/wal"
)

// Address hashes the given parts into a content address. Parts are
// length-prefixed before hashing, so ("ab","c") and ("a","bc") address
// differently — the address is a function of the part sequence, not of
// the concatenated bytes.
func Address(parts ...string) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// BlobStore holds canonicalized snapshot uploads keyed by their SHA-256,
// so a requeued job can re-ingest its inputs after a crash. With a
// directory it is durable (blobs/<hash> files, fsynced); without one it
// retains nothing — an in-memory job store has no journal and never
// replays, so its writers only spool and hash.
//
// Blobs are immutable and content-keyed: committing the same bytes twice
// is a no-op, so concurrent identical uploads cost one file.
type BlobStore struct {
	dir string // "" = in-memory
}

// newBlobStore returns a blob store rooted at dir ("" for in-memory).
func newBlobStore(dir string) (*BlobStore, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("jobs: blob store: %w", err)
		}
	}
	return &BlobStore{dir: dir}, nil
}

// BlobWriter streams one blob towards the store: bytes are hashed as they
// arrive and spooled to a temp file (beside the blobs in durable mode, in
// the system temp directory otherwise), so an upload is never held whole
// in memory. The caller learns the content hash from Sum, may read the
// spool back with Rewind — the daemon interns a snapshot from there only
// when its address turns out to be new — and ends with Commit or Abort.
type BlobWriter struct {
	b   *BlobStore
	h   hash.Hash
	tmp *os.File
	err error
}

// NewWriter starts a streaming blob write. Errors are deferred to Write
// and Commit so the writer can sit at the end of an io.Copy.
func (b *BlobStore) NewWriter() *BlobWriter {
	w := &BlobWriter{b: b, h: sha256.New()}
	// In-memory mode passes "" and lands in os.TempDir.
	w.tmp, w.err = os.CreateTemp(b.dir, ".blob-*")
	if w.err != nil {
		w.err = fmt.Errorf("jobs: blob store: %w", w.err)
	}
	return w
}

// Write hashes and spools p.
func (w *BlobWriter) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	w.h.Write(p)
	if _, err := w.tmp.Write(p); err != nil {
		w.err = fmt.Errorf("jobs: blob store: %w", err)
		return 0, w.err
	}
	return len(p), nil
}

// Sum returns the content hash of the bytes written so far — the address
// Commit will store them under.
func (w *BlobWriter) Sum() string { return hex.EncodeToString(w.h.Sum(nil)) }

// Rewind returns a reader over the spooled bytes from their start. It is
// valid until Commit or Abort.
func (w *BlobWriter) Rewind() (io.Reader, error) {
	if w.err != nil {
		return nil, w.err
	}
	if _, err := w.tmp.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("jobs: blob store: %w", err)
	}
	return w.tmp, nil
}

// Commit finalises the blob and returns its content hash. In durable
// mode a new blob is fsynced and renamed to blobs/<hash>; content that is
// already stored — and every in-memory write — only discards the spool.
func (w *BlobWriter) Commit() (string, error) {
	defer w.Abort()
	if w.err != nil {
		return "", w.err
	}
	sum := w.Sum()
	if w.b.dir == "" || w.b.Exists(sum) {
		return sum, nil
	}
	if err := w.tmp.Sync(); err != nil {
		return "", fmt.Errorf("jobs: blob store: %w", err)
	}
	if err := w.tmp.Close(); err != nil {
		return "", fmt.Errorf("jobs: blob store: %w", err)
	}
	if err := os.Rename(w.tmp.Name(), filepath.Join(w.b.dir, sum)); err != nil {
		return "", fmt.Errorf("jobs: blob store: %w", err)
	}
	w.tmp = nil // the spool is the blob now; nothing left to discard
	wal.SyncDir(w.b.dir)
	return sum, nil
}

// Abort discards the write. It is a no-op after Commit.
func (w *BlobWriter) Abort() {
	if w.tmp != nil {
		w.tmp.Close()
		os.Remove(w.tmp.Name())
		w.tmp = nil
	}
}

// Exists reports whether the blob is stored (never, in memory mode).
func (b *BlobStore) Exists(hash string) bool {
	if b.dir == "" {
		return false
	}
	_, err := os.Stat(filepath.Join(b.dir, hash))
	return err == nil
}

// Open streams the blob's bytes.
func (b *BlobStore) Open(hash string) (io.ReadCloser, error) {
	if b.dir == "" {
		return nil, fmt.Errorf("jobs: blob %s: %w", hash, os.ErrNotExist)
	}
	f, err := os.Open(filepath.Join(b.dir, hash))
	if err != nil {
		return nil, fmt.Errorf("jobs: blob %s: %w", hash, err)
	}
	return f, nil
}

// writeFileSync writes data to path atomically: temp file in the same
// directory, fsync, rename, directory fsync (best effort — some
// filesystems reject directory syncs).
func writeFileSync(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	wal.SyncDir(dir)
	return nil
}
