package metafunc

import (
	"fmt"
	"time"
)

// Date conversions are the extension the paper's conclusions report adding
// to the prototype ("For instance, we recently added support for date
// conversions"): a DateConvert reinterprets a value from one date layout in
// another, e.g. 'Sep 31 2019' ↦ '20190931' (Section 4.4.1's worked
// example). Parameters are the two layouts, so ψ = 2; both are learnable
// from a single input–output example, satisfying the framework's
// one-example induction requirement.

// dateLayouts is the layout catalog, in Go reference-time notation. Only
// layouts with enough structure to avoid false positives on plain numeric
// data are included (≥ 8 characters or explicit separators/names).
var dateLayouts = []string{
	"20060102",
	"2006-01-02",
	"2006/01/02",
	"02.01.2006",
	"01/02/2006",
	"02/01/2006",
	"2006-01",
	"Jan 2 2006",
	"Jan 02 2006",
	"2 Jan 2006",
	"02 Jan 2006",
	"January 2, 2006",
	"2, January 2006",
	"Mon Jan 2 2006",
}

// DateConvert is x ↦ Format(Parse(x, From), To), otherwise x ↦ x, with
// ψ = 2. Parsing is strict: the value must round-trip through From exactly,
// so '1/2/2006' does not sneak through the '01/02/2006' layout.
type DateConvert struct {
	From, To string
}

// NewDateConvert validates both layouts against the catalog.
func NewDateConvert(from, to string) (DateConvert, error) {
	if !knownLayout(from) {
		return DateConvert{}, fmt.Errorf("metafunc: unknown date layout %q", from)
	}
	if !knownLayout(to) {
		return DateConvert{}, fmt.Errorf("metafunc: unknown date layout %q", to)
	}
	return DateConvert{From: from, To: to}, nil
}

func knownLayout(l string) bool {
	for _, k := range dateLayouts {
		if k == l {
			return true
		}
	}
	return false
}

// DateLayouts returns a copy of the supported layout catalog.
func DateLayouts() []string { return append([]string(nil), dateLayouts...) }

func (f DateConvert) Apply(x string) string {
	t, ok := parseDateStrict(x, f.From)
	if !ok {
		return x
	}
	return t.Format(f.To)
}

func (f DateConvert) Params() int { return 2 }

func (f DateConvert) Key() string { return key2("datecv:", f.From, f.To) }

func (f DateConvert) AppendKey(dst []byte) []byte { return appendKey2(dst, "datecv:", f.From, f.To) }

func (f DateConvert) String() string {
	return fmt.Sprintf("date(%s) ↦ date(%s), otherwise x ↦ x", f.From, f.To)
}

// parseDateStrict parses s under layout and requires an exact round trip.
func parseDateStrict(s, layout string) (time.Time, bool) {
	if !plausibleDate(s) {
		return time.Time{}, false
	}
	t, err := time.Parse(layout, s)
	if err != nil {
		return time.Time{}, false
	}
	if t.Format(layout) != s {
		return time.Time{}, false
	}
	return t, true
}

// plausibleDate cheaply rejects values that cannot be dates, keeping the
// hot induction loops fast.
func plausibleDate(s string) bool {
	if len(s) < 6 || len(s) > 32 {
		return false
	}
	digits := 0
	for i := 0; i < len(s); i++ {
		if s[i] >= '0' && s[i] <= '9' {
			digits++
		}
	}
	return digits >= 4
}

// DateMeta induces layout conversions from one example: every pair of
// layouts that parse input and output strictly to the same calendar date
// yields a candidate. Ambiguity ('01/02/2006' vs '02/01/2006') produces
// several candidates, exactly as Section 4.4.1 describes — later examples
// and the ranking stage disambiguate.
type DateMeta struct{}

func (DateMeta) Name() string { return "dateconvert" }

func (DateMeta) Induce(in, out string) []Func {
	if in == out || !plausibleDate(in) || !plausibleDate(out) {
		return nil
	}
	var fs []Func
	for _, li := range dateLayouts {
		ti, ok := parseDateStrict(in, li)
		if !ok {
			continue
		}
		for _, lo := range dateLayouts {
			if lo == li {
				continue
			}
			to, ok := parseDateStrict(out, lo)
			if !ok || !ti.Equal(to) {
				continue
			}
			fs = append(fs, DateConvert{From: li, To: lo})
		}
	}
	return verified(in, out, fs)
}

// DetectDateLayout returns the first catalog layout under which every
// non-empty value parses strictly, and whether one exists. The workload
// generator uses it to decide that a column can carry a date conversion.
func DetectDateLayout(values []string) (string, bool) {
layouts:
	for _, l := range dateLayouts {
		seen := false
		for _, v := range values {
			if v == "" {
				continue
			}
			if _, ok := parseDateStrict(v, l); !ok {
				continue layouts
			}
			seen = true
		}
		if seen {
			return l, true
		}
	}
	return "", false
}
