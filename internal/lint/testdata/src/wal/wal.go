// Package wal is a jobstore fixture scoped like affidavit/internal/wal; the
// jobs fixture imports it to instantiate Log.
package wal

import "encoding/json"

// Log stands in for the real generic log.
type Log[R any] struct{}

// Open stands in for the real constructor.
func Open[R any](path string) *Log[R] { return &Log[R]{} }

// Allowed here: R's structure is unknown inside the package — the
// analyzer checks each instantiation instead (see the jobs fixture).
func (l *Log[R]) Append(rec R) ([]byte, error) {
	return json.Marshal(rec)
}

type header struct {
	Version int
	Index   map[string]int64
}

// Flagged: a map-bearing record encoded in the log package itself.
func encodeHeader(h header) ([]byte, error) {
	return json.Marshal(h) // want "JSON-encoding map-bearing header in the job store"
}
