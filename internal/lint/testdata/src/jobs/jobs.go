// Package jobs is a jobstore fixture: the package path's last segment is
// "jobs", so the analyzer scopes it like the real affidavit/internal/jobs.
package jobs

import (
	"encoding/json"

	"wal"
)

type record struct {
	ID  string
	Seq int64
}

// taggedRecord smuggles a map into an otherwise flat record via a nested
// struct — containsMap must walk the structure, not just the top level.
type taggedRecord struct {
	ID   string
	Meta struct {
		Tags map[string]string
	}
}

// Flagged: a map value's JSON bytes depend on encoder internals, not on
// a declared field order.
func encodeIndex(m map[string]int64) ([]byte, error) {
	return json.Marshal(m) // want "JSON-encoding map-bearing map\[string\]int64 in the job store"
}

// Flagged: the map hides one struct level down.
func encodeTagged(r taggedRecord) ([]byte, error) {
	return json.MarshalIndent(r, "", "  ") // want "JSON-encoding map-bearing taggedRecord"
}

// Flagged: the streaming encoder path.
func encodeTo(enc *json.Encoder, recs []taggedRecord) error {
	return enc.Encode(recs) // want "JSON-encoding map-bearing \[\]taggedRecord"
}

// Allowed: a flat record's bytes are a pure function of field order.
func encodeFlat(r record) ([]byte, error) {
	return json.Marshal(r)
}

// Allowed with an analyzer-specific ignore.
func encodeDebug(m map[string]int64) ([]byte, error) {
	//affidavit:ignore jobstore debug dump, never journaled or addressed
	return json.Marshal(m)
}

// Flagged: the log would journal a map-bearing record type, both where
// the type is named and where the constructor infers it.
type taggedStore struct {
	jrnl *wal.Log[taggedRecord] // want "map-bearing taggedRecord instantiates wal.Log"
}

func openTagged() *taggedStore {
	return &taggedStore{jrnl: wal.Open[taggedRecord]("journal.jsonl")} // want "map-bearing taggedRecord instantiates wal.Open"
}

// Allowed: a flat record type.
func openFlat() *wal.Log[record] {
	return wal.Open[record]("journal.jsonl")
}
