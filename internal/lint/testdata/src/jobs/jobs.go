// Package jobs is a jobstore fixture: the package path's last segment is
// "jobs", so the analyzer scopes it like the real affidavit/internal/jobs.
package jobs

import (
	"encoding/json"
	"sort"

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

type store struct {
	byID map[string]*record
}

// Flagged: the listing's order leaks map iteration order.
func (s *store) list() []record {
	var out []record
	for _, rec := range s.byID { // want "unordered iteration over map\[string\]\*record in the job store"
		if rec.Seq > 0 {
			out = append(out, *rec)
		}
	}
	return out
}

// Allowed: the canonical append-then-sort idiom.
func (s *store) ids() []string {
	var ids []string
	for id := range s.byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Allowed: commutative accumulation only.
func (s *store) pending() int {
	n := 0
	for _, rec := range s.byID {
		if rec.Seq == 0 {
			n++
		}
	}
	return n
}

// Allowed: `for range m` — iterations are indistinguishable.
func (s *store) size() int {
	n := 0
	for range s.byID {
		n++
	}
	return n
}

// Allowed with a justified bare directive: ordered covers jobstore too.
func (s *store) member(id string) bool {
	//affidavit:ordered membership test: the loop exits on a hit, order is irrelevant
	for got := range s.byID {
		if got == id {
			return true
		}
	}
	return false
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
