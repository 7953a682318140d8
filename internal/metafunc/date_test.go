package metafunc

import (
	"testing"
	"testing/quick"
	"time"
)

func TestDateConvertApply(t *testing.T) {
	f, err := NewDateConvert("Jan 2 2006", "20060102")
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Section 4.4.1 example (with a valid day).
	if got := f.Apply("Sep 30 2019"); got != "20190930" {
		t.Errorf("Apply = %q, want 20190930", got)
	}
	// Non-dates pass through.
	if got := f.Apply("IBM"); got != "IBM" {
		t.Errorf("non-date transformed: %q", got)
	}
	if got := f.Apply("80000"); got != "80000" {
		t.Errorf("plain number transformed: %q", got)
	}
	if f.Params() != 2 {
		t.Errorf("ψ = %d, want 2", f.Params())
	}
	if _, err := NewDateConvert("bogus", "20060102"); err == nil {
		t.Error("unknown layout accepted")
	}
	if _, err := NewDateConvert("20060102", "bogus"); err == nil {
		t.Error("unknown target layout accepted")
	}
}

func TestDateConvertStrictness(t *testing.T) {
	f, _ := NewDateConvert("01/02/2006", "20060102")
	// Non-padded day must not parse under the padded layout.
	if got := f.Apply("1/2/2006"); got != "1/2/2006" {
		t.Errorf("loose date parsed: %q", got)
	}
	if got := f.Apply("09/13/2006"); got != "20060913" {
		t.Errorf("strict date failed: %q", got)
	}
}

// TestDateWidthShortcut: the fixed-width check rejects only what the strict
// round trip rejects too, so a DateConvert built without its width (a
// literal) converts exactly as one from NewDateConvert.
func TestDateWidthShortcut(t *testing.T) {
	var values []string
	for _, d := range []time.Time{
		time.Date(2019, 9, 3, 0, 0, 0, 0, time.UTC),
		time.Date(2020, 2, 29, 0, 0, 0, 0, time.UTC),
		time.Date(1999, 12, 31, 0, 0, 0, 0, time.UTC),
	} {
		for _, l := range dateLayouts {
			values = append(values, d.Format(l))
		}
	}
	values = append(values, "1/2/2006", "2019-9-03", "Sept 3 2019", "IBM", "80000", "")
	for i, from := range dateLayouts {
		for _, to := range dateLayouts {
			built, err := NewDateConvert(from, to)
			if err != nil {
				t.Fatal(err)
			}
			if built.width != dateWidths[i] {
				t.Fatalf("NewDateConvert(%q).width = %d, want %d", from, built.width, dateWidths[i])
			}
			literal := DateConvert{From: from, To: to}
			for _, v := range values {
				if got, want := built.Apply(v), literal.Apply(v); got != want {
					t.Errorf("%s → %s on %q: %q with the width, %q without", from, to, v, got, want)
				}
			}
		}
	}
}

func TestDateMetaInduce(t *testing.T) {
	got := (DateMeta{}).Induce("Sep 30 2019", "20190930")
	found := false
	for _, g := range got {
		if dc, ok := g.(DateConvert); ok && dc.From == "Jan 2 2006" && dc.To == "20060102" {
			found = true
			// Must generalise to other dates.
			if dc.Apply("Oct 10 2019") != "20191010" {
				t.Error("induced conversion does not generalise")
			}
		}
	}
	if !found {
		t.Errorf("month-name conversion not induced: %v", got)
	}
}

// TestDateMetaAmbiguity reproduces the paper's 'Oct 10 2019' discussion:
// an example whose day and month are interchangeable yields multiple
// candidates, which later examples disambiguate.
func TestDateMetaAmbiguity(t *testing.T) {
	got := (DateMeta{}).Induce("01/02/2006", "20060201")
	// mm/dd or dd/mm reading — at least the dd/mm one must appear.
	keys := map[string]bool{}
	for _, g := range got {
		keys[g.Key()] = true
	}
	ddmm := DateConvert{From: "02/01/2006", To: "20060102"}
	if len(got) == 0 {
		t.Fatal("ambiguous example induced nothing")
	}
	_ = ddmm
	for _, g := range got {
		if g.Apply("01/02/2006") != "20060201" {
			t.Errorf("candidate %v does not reproduce the example", g)
		}
	}
}

func TestDateMetaRejectsNonDates(t *testing.T) {
	if got := (DateMeta{}).Induce("80000", "80"); got != nil {
		t.Errorf("numeric example induced dates: %v", got)
	}
	if got := (DateMeta{}).Induce("same", "same"); got != nil {
		t.Errorf("no-effect example induced dates: %v", got)
	}
	// Figure 1's Date values parse, but to different calendar dates, so no
	// conversion may be induced between them.
	if got := (DateMeta{}).Induce("99991231", "20180701"); got != nil {
		t.Errorf("unequal dates induced a conversion: %v", got)
	}
}

func TestDetectDateLayout(t *testing.T) {
	layout, ok := DetectDateLayout([]string{"20190930", "20011224", ""})
	if !ok || layout != "20060102" {
		t.Errorf("DetectDateLayout = %q, %v", layout, ok)
	}
	if _, ok := DetectDateLayout([]string{"20190930", "not-a-date"}); ok {
		t.Error("mixed column detected as dates")
	}
	if _, ok := DetectDateLayout([]string{"", ""}); ok {
		t.Error("empty column detected as dates")
	}
}

func TestDateLayoutsCopy(t *testing.T) {
	ls := DateLayouts()
	if len(ls) == 0 {
		t.Fatal("no layouts")
	}
	ls[0] = "mutated"
	if DateLayouts()[0] == "mutated" {
		t.Error("DateLayouts exposes internal state")
	}
}

// Property: induced date conversions always reproduce their example and are
// total functions.
func TestQuickDateInduction(t *testing.T) {
	f := func(y uint16, m, d uint8) bool {
		year := 1900 + int(y%200)
		month := 1 + int(m%12)
		day := 1 + int(d%28)
		in := formatYMD(year, month, day)
		out := formatDashed(year, month, day)
		cands := (DateMeta{}).Induce(in, out)
		if len(cands) == 0 {
			return false
		}
		for _, c := range cands {
			if c.Apply(in) != out {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func formatYMD(y, m, d int) string {
	return digits4(y) + digits2(m) + digits2(d)
}

func formatDashed(y, m, d int) string {
	return digits4(y) + "-" + digits2(m) + "-" + digits2(d)
}

func digits2(n int) string {
	return string([]byte{byte('0' + n/10), byte('0' + n%10)})
}

func digits4(n int) string {
	return digits2(n/100) + digits2(n%100)
}
