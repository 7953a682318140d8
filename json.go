package affidavit

import (
	"bytes"
	"encoding/json"
	"strconv"
	"unicode/utf8"

	"affidavit/internal/delta"
	"affidavit/internal/report"
)

// JSONExplanation is the machine-readable form of an explanation:
// per-attribute function descriptors, the core alignment as index pairs,
// and the deleted/inserted record indices.
type JSONExplanation = report.JSONExplanation

// JSONFunction describes one attribute function.
type JSONFunction = report.JSONFunction

// JSONPair aligns source record index S with target record index T.
type JSONPair = report.JSONPair

// JSONStats is the deterministic subset of search statistics: wall time is
// deliberately omitted so identical inputs produce byte-identical
// encodings.
type JSONStats struct {
	Polls           int  `json:"polls"`
	StatesGenerated int  `json:"states_generated"`
	Enqueued        int  `json:"enqueued"`
	Evicted         int  `json:"evicted"`
	StartLevel      int  `json:"start_level"`
	WarmEscalated   bool `json:"warm_escalated,omitempty"`
	Cancelled       bool `json:"cancelled,omitempty"`
}

// JSONResult is the stable machine-readable encoding of a Result, shared
// by cmd/affidavit's -json output and affidavitd's /explain responses.
// Field order is fixed; all floats are finite (the compression ratio is 0
// when the trivial cost is 0, never NaN).
type JSONResult struct {
	// Table names the snapshot pair; set from the argument of Result.JSON.
	// Empty omits the field and the SQL script.
	Table       string          `json:"table,omitempty"`
	Explanation JSONExplanation `json:"explanation"`
	// SQL is the migration script for Table; omitted when Table is empty.
	SQL         string    `json:"sql,omitempty"`
	Cost        float64   `json:"cost"`
	TrivialCost float64   `json:"trivial_cost"`
	Compression float64   `json:"compression"`
	Stats       JSONStats `json:"stats"`
	// Trace is the run's structured trace. Result.JSONResult never sets it
	// — wall-clock values would break the byte-identical guarantee — so
	// plain encodings are unchanged; affidavitd inlines it on ?trace=1.
	Trace *Trace `json:"trace,omitempty"`
}

// StatsJSON projects run statistics onto their deterministic JSON subset.
func StatsJSON(s Stats) JSONStats {
	return JSONStats{
		Polls:           s.Polls,
		StatesGenerated: s.StatesGenerated,
		Enqueued:        s.Enqueued,
		Evicted:         s.Evicted,
		StartLevel:      s.StartLevel,
		WarmEscalated:   s.WarmEscalated,
		Cancelled:       s.Cancelled,
	}
}

// JSONResult builds the stable encoding struct; table, when non-empty,
// names the pair and selects SQL emission.
func (r *Result) JSONResult(table string) JSONResult {
	out := JSONResult{
		Table:       table,
		Explanation: report.ToJSON(r.Explanation, delta.CostModel{Alpha: r.alpha}),
		Cost:        r.Cost,
		TrivialCost: r.TrivialCost,
		Compression: r.compression(),
		Stats:       StatsJSON(r.Stats),
	}
	if table != "" {
		out.SQL = r.SQL(table)
	}
	return out
}

// compression is Cost/TrivialCost, 0 when the trivial cost is 0.
func (r *Result) compression() float64 {
	if r.TrivialCost > 0 {
		return r.Cost / r.TrivialCost
	}
	return 0
}

// JSON renders the result as indented JSON with a stable field order —
// identical inputs (and seeds) produce byte-identical output. table, when
// non-empty, is included along with the SQL migration script for it.
//
// The bytes are exactly json.MarshalIndent(r.JSONResult(table), "", "  "),
// appended once into one buffer sized from the record counts. The parts
// that grow with the records — core pairs, deleted and inserted indices,
// the SQL script — are written here; the rest (schema, functions, floats,
// stats) is encoding/json's, at its depth. The buffer keeps room for one
// more byte, so a caller storing the document with a trailing newline
// appends it without a copy.
func (r *Result) JSON(table string) ([]byte, error) {
	e := r.Explanation
	cm := delta.CostModel{Alpha: r.alpha}
	schema, err := json.MarshalIndent(e.Inst.Schema().Attrs(), "    ", "  ")
	if err != nil {
		return nil, err
	}
	funcs, err := json.MarshalIndent(report.Functions(e), "    ", "  ")
	if err != nil {
		return nil, err
	}
	idx := digits(max(e.Inst.Source.Len(), e.Inst.Target.Len()))
	size := 1024 + len(schema) + len(funcs) + len(e.CoreSrc)*(46+2*idx) + (len(e.Deleted)+len(e.Inserted))*(8+idx)
	var sql []byte
	if table != "" {
		sql = report.AppendSQL(nil, e, table)
		// Every SQL line ends in a newline and quotes its identifiers, both
		// escaped to two bytes; rarer escapes may cost one regrowth.
		size += len(sql) + bytes.Count(sql, []byte{'"'}) + bytes.Count(sql, []byte{'\n'}) + len(sql)/64 + 6*len(table)
	}
	enc := jsonAppender{b: make([]byte, 0, size)}
	enc.raw("{\n")
	if table != "" {
		enc.raw(`  "table": `)
		enc.str([]byte(table))
		enc.raw(",\n")
	}
	enc.raw("  \"explanation\": {\n    \"schema\": ")
	enc.b = append(enc.b, schema...)
	enc.raw(",\n    \"functions\": ")
	enc.b = append(enc.b, funcs...)
	enc.raw(",\n    \"core\": ")
	if len(e.CoreSrc) == 0 {
		enc.raw("null") // ToJSON leaves an empty core nil
	} else {
		enc.raw("[")
		for i, s := range e.CoreSrc {
			if i > 0 {
				enc.raw(",")
			}
			enc.raw("\n      {\n        \"s\": ")
			enc.int(s)
			enc.raw(",\n        \"t\": ")
			enc.int(e.CoreTgt[i])
			enc.raw("\n      }")
		}
		enc.raw("\n    ]")
	}
	enc.raw(",\n    \"deleted\": ")
	enc.ints(e.Deleted)
	enc.raw(",\n    \"inserted\": ")
	enc.ints(e.Inserted)
	enc.raw(",\n    \"cost\": ")
	enc.value(cm.Cost(e), "")
	enc.raw(",\n    \"alpha\": ")
	enc.value(cm.Alpha, "")
	enc.raw("\n  },\n")
	if table != "" {
		enc.raw(`  "sql": `)
		enc.str(sql)
		enc.raw(",\n")
	}
	enc.raw(`  "cost": `)
	enc.value(r.Cost, "")
	enc.raw(",\n  \"trivial_cost\": ")
	enc.value(r.TrivialCost, "")
	enc.raw(",\n  \"compression\": ")
	enc.value(r.compression(), "")
	enc.raw(",\n  \"stats\": ")
	enc.value(StatsJSON(r.Stats), "  ")
	enc.raw("\n}")
	if enc.err != nil {
		return nil, enc.err
	}
	return enc.b, nil
}

// digits returns the decimal length of n ≥ 0.
func digits(n int) int {
	d := 1
	for ; n >= 10; n /= 10 {
		d++
	}
	return d
}

// jsonAppender appends one indented JSON document. The first encoding/json
// error sticks; later values are skipped.
type jsonAppender struct {
	b   []byte
	err error
}

func (a *jsonAppender) raw(s string) { a.b = append(a.b, s...) }

func (a *jsonAppender) int(n int) { a.b = strconv.AppendInt(a.b, int64(n), 10) }

// ints appends an index list as an array member of the explanation: []
// when empty, because ToJSON never leaves these lists nil.
func (a *jsonAppender) ints(ns []int) {
	if len(ns) == 0 {
		a.raw("[]")
		return
	}
	a.raw("[")
	for i, n := range ns {
		if i > 0 {
			a.raw(",")
		}
		a.raw("\n      ")
		a.int(n)
	}
	a.raw("\n    ]")
}

// value appends v as encoding/json indents it at the depth prefix gives.
func (a *jsonAppender) value(v any, prefix string) {
	if a.err != nil {
		return
	}
	var p []byte
	p, a.err = json.MarshalIndent(v, prefix, "  ")
	a.b = append(a.b, p...)
}

// str appends s as the JSON string encoding/json writes for it: HTML-safe,
// with U+2028, U+2029 and invalid UTF-8 escaped. Plain bytes and the
// escapes every Go release spells alike are written here; runs of the
// other control characters go through encoding/json itself, whose spelling
// of \b and \f changed in Go 1.22.
func (a *jsonAppender) str(s []byte) {
	b := append(a.b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if jsonPlain[c] {
			i++
			continue
		}
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRune(s[i:])
			if (r != utf8.RuneError || size != 1) && r != 0x2028 && r != 0x2029 {
				i += size
				continue
			}
			b = append(b, s[start:i]...)
			b = appendEscape(b, r) // an invalid byte decodes as U+FFFD
			i += size
			start = i
			continue
		}
		b = append(b, s[start:i]...)
		switch c {
		case '"', '\\':
			b = append(b, '\\', c)
		case '<', '>', '&':
			b = appendEscape(b, rune(c))
		case '\n':
			b = append(b, '\\', 'n')
		case '\r':
			b = append(b, '\\', 'r')
		case '\t':
			b = append(b, '\\', 't')
		default:
			j := i + 1
			for j < len(s) && s[j] < 0x20 && s[j] != '\n' && s[j] != '\r' && s[j] != '\t' {
				j++
			}
			q, _ := json.Marshal(string(s[i:j])) // a string always encodes
			b = append(b, q[1:len(q)-1]...)
			i = j - 1
		}
		i++
		start = i
	}
	b = append(b, s[start:]...)
	a.b = append(b, '"')
}

// jsonPlain marks the bytes encoding/json copies into a string unchanged:
// printable ASCII other than the quote, the backslash and the HTML
// specials.
var jsonPlain = func() (plain [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		plain[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return plain
}()

// appendEscape appends the six-byte \u escape of r ≤ U+FFFF.
func appendEscape(b []byte, r rune) []byte {
	const hex = "0123456789abcdef"
	return append(b, '\\', 'u', hex[r>>12&0xF], hex[r>>8&0xF], hex[r>>4&0xF], hex[r&0xF])
}
