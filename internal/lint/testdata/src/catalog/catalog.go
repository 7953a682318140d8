// Package catalog is a mapiter fixture scoped like the journaling package
// affidavit/internal/catalog: replayed state and listings must not depend
// on map order.
package catalog

import "sort"

type record struct {
	ID  string
	Seq int64
}

type store struct {
	byID map[string]*record
}

// Flagged: the listing's order leaks map iteration order.
func (s *store) list() []record {
	var out []record
	for _, rec := range s.byID { // want "unordered iteration over map\[string\]\*record in determinism-critical package catalog"
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

// Allowed with a justified bare directive.
func (s *store) member(id string) bool {
	//affidavit:ordered membership test: the loop exits on a hit, order is irrelevant
	for got := range s.byID {
		if got == id {
			return true
		}
	}
	return false
}
