package metafunc

import (
	"fmt"
	"slices"
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

// dateWidths[i] is the length of every string dateLayouts[i] formats, or 0
// when that length varies (unpadded days, full month names). A strict
// parse requires t.Format(layout) == s, so under a fixed-width layout a
// value of any other length is rejected before time.Parse runs.
var dateWidths = layoutWidths(dateLayouts)

// layoutWidths formats every day of a leap year — every month name,
// weekday name and one- or two-digit day — and keeps each layout's width
// if it never varies. Catalog years are four digits whatever the date, so
// one year shows every width a layout can produce.
func layoutWidths(layouts []string) []int {
	widths := make([]int, len(layouts))
	t0 := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	var buf [64]byte
	for i, l := range layouts {
		w := len(t0.AppendFormat(buf[:0], l))
		for d := 1; d < 366 && w > 0; d++ {
			if len(t0.AddDate(0, 0, d).AppendFormat(buf[:0], l)) != w {
				w = 0
			}
		}
		widths[i] = w
	}
	return widths
}

// DateConvert is x ↦ Format(Parse(x, From), To), otherwise x ↦ x, with
// ψ = 2. Parsing is strict: the value must round-trip through From exactly,
// so '1/2/2006' does not sneak through the '01/02/2006' layout.
type DateConvert struct {
	From, To string
	width    int // From's fixed width (dateWidths); 0 when it varies or is unset
}

// NewDateConvert validates both layouts against the catalog.
func NewDateConvert(from, to string) (DateConvert, error) {
	i := slices.Index(dateLayouts, from)
	if i < 0 {
		return DateConvert{}, fmt.Errorf("metafunc: unknown date layout %q", from)
	}
	if !slices.Contains(dateLayouts, to) {
		return DateConvert{}, fmt.Errorf("metafunc: unknown date layout %q", to)
	}
	return DateConvert{From: from, To: to, width: dateWidths[i]}, nil
}

// DateLayouts returns a copy of the supported layout catalog.
func DateLayouts() []string { return append([]string(nil), dateLayouts...) }

func (f DateConvert) Apply(x string) string {
	t, ok := parseDateStrict(x, f.From, f.width)
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
// width is the layout's fixed formatted width, 0 when it varies.
func parseDateStrict(s, layout string, width int) (time.Time, bool) {
	if (width > 0 && len(s) != width) || !plausibleDate(s) {
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
	for i, li := range dateLayouts {
		ti, ok := parseDateStrict(in, li, dateWidths[i])
		if !ok {
			continue
		}
		for j, lo := range dateLayouts {
			if lo == li {
				continue
			}
			to, ok := parseDateStrict(out, lo, dateWidths[j])
			if !ok || !ti.Equal(to) {
				continue
			}
			fs = append(fs, DateConvert{From: li, To: lo, width: dateWidths[i]})
		}
	}
	return verified(in, out, fs)
}

// DetectDateLayout returns the first catalog layout under which every
// non-empty value parses strictly, and whether one exists. The workload
// generator uses it to decide that a column can carry a date conversion.
func DetectDateLayout(values []string) (string, bool) {
layouts:
	for i, l := range dateLayouts {
		seen := false
		for _, v := range values {
			if v == "" {
				continue
			}
			if _, ok := parseDateStrict(v, l, dateWidths[i]); !ok {
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
