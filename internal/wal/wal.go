// Package wal is the one durable log under the job store and the
// snapshot catalog: an append-only JSONL file holding one full record per
// line. Appends fsync before returning, so an acknowledged transition
// survives a crash; replay keeps the last line per key, ordered by
// sequence number; a torn or corrupt tail (power cut mid-write) is
// truncated away on open instead of poisoning the store; and compaction
// swaps in a fresh file holding only the live records.
//
// Record types must be fixed structs, never maps: line bytes are compared
// across process restarts, so they have to be a pure function of declared
// field order (the jobstore analyzer checks every instantiation).
package wal

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Schema tells the log how a record type replays.
type Schema[R any] struct {
	// Key is the replay identity: the last line per key wins.
	Key func(*R) string
	// Seq orders the replayed records.
	Seq func(*R) uint64
	// Valid rejects records a hostile or torn file could hold but a live
	// store never writes; replay stops at the first such line.
	Valid func(*R) error
}

// Log is an open log, positioned for appends.
type Log[R any] struct {
	path     string
	f        *os.File
	appended int
}

// Open opens (creating if needed) the log at path, replays it and drops
// everything past the last decodable line, so the next append starts
// clean. The returned records are the live set: one per key, last line
// wins, ordered by Seq (ties keep file order).
func Open[R any](path string, sc Schema[R]) (*Log[R], []R, error) {
	recs, keep, err := replay(path, sc)
	if err != nil {
		return nil, nil, err
	}
	if fi, statErr := os.Stat(path); statErr == nil && fi.Size() > keep {
		if err := os.Truncate(path, keep); err != nil {
			return nil, nil, fmt.Errorf("wal: truncating the tail of %s: %w", path, err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	return &Log[R]{path: path, f: f}, recs, nil
}

// replay decodes path line by line, returning the live records and the
// byte length of the valid prefix. A missing file replays empty.
func replay[R any](path string, sc Schema[R]) ([]R, int64, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("wal: opening %s: %w", path, err)
	}
	defer f.Close()
	var (
		recs  []R
		byKey = make(map[string]int) // key → index in recs
		keep  int64
	)
	r := bufio.NewReaderSize(f, 1<<16)
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			// No trailing newline: the final append was cut mid-line.
			// Treat it as torn — keep stays at the last full line.
			break
		}
		if err != nil {
			return nil, 0, fmt.Errorf("wal: reading %s: %w", path, err)
		}
		var rec R
		if json.Unmarshal(line, &rec) != nil || sc.Valid(&rec) != nil {
			break // corrupt line: everything from here on is the torn tail
		}
		keep += int64(len(line))
		key := sc.Key(&rec)
		if i, ok := byKey[key]; ok {
			recs[i] = rec
		} else {
			byKey[key] = len(recs)
			recs = append(recs, rec)
		}
	}
	sort.SliceStable(recs, func(i, j int) bool { return sc.Seq(&recs[i]) < sc.Seq(&recs[j]) })
	return recs, keep, nil
}

// Append writes one record and fsyncs it — the durability point of every
// state change.
func (l *Log[R]) Append(rec R) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("wal: encoding a record for %s: %w", l.path, err)
	}
	if _, err := l.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("wal: appending to %s: %w", l.path, err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: syncing %s: %w", l.path, err)
	}
	l.appended++
	return nil
}

// Appended counts the lines appended since Open or the last Compact, for
// callers that compact on a cadence.
func (l *Log[R]) Appended() int { return l.appended }

// Compact replaces the log with the live records: written to a temp file,
// fsynced, renamed over the old log. live must be what a replay of the
// current log would return, in that order, so the compacted log replays
// identically to the one it replaces.
func (l *Log[R]) Compact(live []R) error {
	if err := l.writeCompacted(live); err != nil {
		return fmt.Errorf("wal: compacting %s: %w", l.path, err)
	}
	f, err := os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: reopening compacted %s: %w", l.path, err)
	}
	l.f.Close()
	l.f = f
	l.appended = 0
	return nil
}

func (l *Log[R]) writeCompacted(live []R) error {
	dir := filepath.Dir(l.path)
	tmp, err := os.CreateTemp(dir, ".journal-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	defer tmp.Close()
	w := bufio.NewWriterSize(tmp, 1<<16)
	for _, rec := range live {
		line, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(line, '\n')); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), l.path); err != nil {
		return err
	}
	SyncDir(dir)
	return nil
}

// Close closes the log's file.
func (l *Log[R]) Close() error { return l.f.Close() }

// SyncDir fsyncs a directory so a rename into it survives power loss.
func SyncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync() // best effort: directory fsync is advisory on some systems
	d.Close()
}
