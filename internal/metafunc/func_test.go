package metafunc

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestTable1Inventory(t *testing.T) {
	// The paper's Table 1, as implemented, with ψ per Def 3.9.
	div, err := NewDivision("1000")
	if err != nil {
		t.Fatal(err)
	}
	add, err := NewAdd("5")
	if err != nil {
		t.Fatal(err)
	}
	third, err := NewDivision("3")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		f    Func
		psi  int
		name string
	}{
		{Identity{}, 0, "identity"},
		{Upper{}, 0, "uppercasing"},
		{Lower{}, 0, "lowercasing (inverse)"},
		{Constant{C: "k $"}, 1, "constant value"},
		{add, 1, "addition"},
		{div, 1, "division"},
		{FrontMask{M: "XX"}, 1, "front masking"},
		{BackMask{M: "XX"}, 1, "back masking (inverse)"},
		{FrontTrim{C: '0'}, 1, "front char trimming"},
		{BackTrim{C: '0'}, 1, "back char trimming (inverse)"},
		{Prefix{Y: "p-"}, 1, "prefixing"},
		{Suffix{Y: "-s"}, 1, "suffixing (inverse)"},
		{PrefixReplace{Y: "9999123", Z: "2018070"}, 2, "prefix replacement"},
		{SuffixReplace{Y: "a", Z: "b"}, 2, "suffix replacement (inverse)"},
		{NewMapping(map[string]string{"a": "b", "c": "d"}), 4, "value mapping (2 entries)"},
		{Negation{}, 0, "boolean negation (reduction)"},
		{third, 1, "division with a non-terminating factor"},
		{DateConvert{From: "20060102", To: "Jan 2 2006"}, 2, "date conversion"},
		{Constant{C: strings.Repeat("long ", 40)}, 1, "constant longer than the key stack buffer"},
	}
	keys := make(map[string]string)
	for _, c := range cases {
		if got := c.f.Params(); got != c.psi {
			t.Errorf("%s: ψ = %d, want %d", c.name, got, c.psi)
		}
		if prev, dup := keys[c.f.Key()]; dup {
			t.Errorf("%s and %s share key %q", c.name, prev, c.f.Key())
		}
		keys[c.f.Key()] = c.name
		if got := string(AppendKey([]byte("dst|"), c.f)); got != "dst|"+c.f.Key() {
			t.Errorf("%s: AppendKey wrote %q, Key() is %q", c.name, got, c.f.Key())
		}
		if c.f.String() == "" {
			t.Errorf("%s: empty String()", c.name)
		}
	}
}

func TestIdentity(t *testing.T) {
	if (Identity{}).Apply("abc") != "abc" {
		t.Error("identity changed value")
	}
	if got := (IdentityMeta{}).Induce("x", "x"); len(got) != 1 || !IsIdentity(got[0]) {
		t.Errorf("Induce(x,x) = %v", got)
	}
	if got := (IdentityMeta{}).Induce("x", "y"); got != nil {
		t.Errorf("Induce(x,y) = %v, want nil", got)
	}
	if IsIdentity(Upper{}) {
		t.Error("Upper mistaken for identity")
	}
}

func TestCasing(t *testing.T) {
	if (Upper{}).Apply("abC1") != "ABC1" || (Lower{}).Apply("AbC1") != "abc1" {
		t.Error("casing apply wrong")
	}
	got := (CasingMeta{}).Induce("sap", "SAP")
	if len(got) != 1 || got[0].Key() != (Upper{}).Key() {
		t.Errorf("Induce(sap,SAP) = %v", got)
	}
	got = (CasingMeta{}).Induce("SAP", "sap")
	if len(got) != 1 || got[0].Key() != (Lower{}).Key() {
		t.Errorf("Induce(SAP,sap) = %v", got)
	}
	if got := (CasingMeta{}).Induce("SAP", "SAP"); got != nil {
		t.Errorf("no-effect example induced casing: %v", got)
	}
	if got := (CasingMeta{}).Induce("123", "456"); got != nil {
		t.Errorf("non-case example induced casing: %v", got)
	}
}

func TestConstant(t *testing.T) {
	f := Constant{C: "k $"}
	if f.Apply("anything") != "k $" || f.Apply("") != "k $" {
		t.Error("constant apply wrong")
	}
	got := (ConstantMeta{}).Induce("USD", "k $")
	if len(got) != 1 || got[0].Apply("zzz") != "k $" {
		t.Errorf("Induce = %v", got)
	}
}

func TestAdd(t *testing.T) {
	f, err := NewAdd("-6530.2")
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Apply("6540"); got != "9.8" {
		t.Errorf("6540 − 6530.2 = %q, want 9.8", got)
	}
	// Non-canonical numerics pass through.
	if got := f.Apply("0042"); got != "0042" {
		t.Errorf("non-canonical input transformed: %q", got)
	}
	if got := f.Apply("IBM"); got != "IBM" {
		t.Errorf("non-numeric input transformed: %q", got)
	}
	if !strings.Contains(f.String(), "−") {
		t.Errorf("negative addend should render as subtraction: %s", f)
	}
	if _, err := NewAdd("abc"); err == nil {
		t.Error("NewAdd accepted garbage")
	}
}

func TestAdditionInduce(t *testing.T) {
	got := (AdditionMeta{}).Induce("0", "9.8")
	if len(got) != 1 || got[0].Apply("0") != "9.8" || got[0].Apply("1") != "10.8" {
		t.Errorf("Induce(0, 9.8) = %v", got)
	}
	if got := (AdditionMeta{}).Induce("5", "5"); got != nil {
		t.Errorf("zero addend induced: %v", got)
	}
	// Zero-padded key values must not produce numeric candidates.
	if got := (AdditionMeta{}).Induce("0000", "0006"); got != nil {
		t.Errorf("non-canonical example induced addition: %v", got)
	}
	if got := (AdditionMeta{}).Induce("IBM", "SAP"); got != nil {
		t.Errorf("non-numeric example induced addition: %v", got)
	}
}

func TestScale(t *testing.T) {
	div, err := NewDivision("1000")
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		"80000": "80", "6540": "6.54", "9800": "9.8", "0": "0", "65": "0.065",
		"IBM": "IBM", "0042": "0042",
	}
	for in, want := range cases {
		if got := div.Apply(in); got != want {
			t.Errorf("div1000(%q) = %q, want %q", in, got, want)
		}
	}
	if !strings.Contains(div.String(), "/ 1000") {
		t.Errorf("division rendering: %s", div)
	}
	mul, err := NewMultiplication("1000")
	if err != nil {
		t.Fatal(err)
	}
	if got := mul.Apply("6.54"); got != "6540" {
		t.Errorf("mul1000(6.54) = %q", got)
	}
	if _, err := NewDivision("0"); err == nil {
		t.Error("NewDivision accepted zero")
	}
	if _, err := NewMultiplication("x"); err == nil {
		t.Error("NewMultiplication accepted garbage")
	}
}

func TestScalingInduce(t *testing.T) {
	got := (ScalingMeta{}).Induce("65", "0.065")
	if len(got) != 1 {
		t.Fatalf("Induce(65, 0.065) = %v", got)
	}
	// The induced scale must generalise across the Val column of Figure 1.
	f := got[0]
	if f.Apply("80000") != "80" || f.Apply("422400") != "422.4" {
		t.Errorf("induced scale does not generalise: %v", f)
	}
	if got := (ScalingMeta{}).Induce("0", "0"); got != nil {
		t.Errorf("zero example induced scaling: %v", got)
	}
	if got := (ScalingMeta{}).Induce("5", "0"); got != nil {
		t.Errorf("to-zero example induced scaling: %v", got)
	}
	if got := (ScalingMeta{}).Induce("7", "7"); got != nil {
		t.Errorf("unit factor induced: %v", got)
	}
	// Division and multiplication collapse to the same canonical key.
	d, _ := NewDivision("4")
	m, _ := NewMultiplication("0.25")
	if d.Key() != m.Key() {
		t.Errorf("x/4 and x·0.25 have different keys: %q vs %q", d.Key(), m.Key())
	}
}

func TestScaleNonTerminatingMarker(t *testing.T) {
	third, _ := NewDivision("3")
	// 10/3 does not terminate: the result must be an unmatchable marker,
	// not an identity pass-through (which would let a scale factor act as a
	// degenerate one-value rewrite).
	got := third.Apply("10")
	if got == "10" {
		t.Error("10/3 must not fall back to identity")
	}
	if len(got) == 0 || got[0] != '\x00' {
		t.Errorf("10/3 = %q, want NUL-prefixed marker", got)
	}
	// Distinct inputs map to distinct markers (blocking stays injective).
	if third.Apply("10") == third.Apply("20") {
		t.Error("markers collide")
	}
	if got := third.Apply("9"); got != "3" {
		t.Errorf("9/3 = %q, want 3", got)
	}
}

func TestMasking(t *testing.T) {
	f := FrontMask{M: "20"}
	if f.Apply("19991231") != "20991231" {
		t.Error("front mask apply wrong")
	}
	if f.Apply("5") != "5" {
		t.Error("short input should pass through")
	}
	b := BackMask{M: "00"}
	if b.Apply("1234") != "1200" {
		t.Error("back mask apply wrong")
	}
	got := (MaskingMeta{}).Induce("19991231", "20991231")
	if len(got) == 0 {
		t.Fatal("masking not induced")
	}
	foundFront := false
	for _, g := range got {
		if fm, ok := g.(FrontMask); ok {
			foundFront = true
			if fm.M != "20" {
				t.Errorf("front mask = %q, want shortest %q", fm.M, "20")
			}
		}
	}
	if !foundFront {
		t.Error("no front mask among candidates")
	}
	if got := (MaskingMeta{}).Induce("abc", "abcd"); got != nil {
		t.Errorf("length-changing example induced mask: %v", got)
	}
	if got := (MaskingMeta{}).Induce("same", "same"); got != nil {
		t.Errorf("no-effect example induced mask: %v", got)
	}
}

func TestTrimming(t *testing.T) {
	f := FrontTrim{C: '0'}
	if f.Apply("00042") != "42" || f.Apply("42") != "42" || f.Apply("000") != "" {
		t.Error("front trim apply wrong")
	}
	b := BackTrim{C: '0'}
	if b.Apply("42000") != "42" || b.Apply("42") != "42" {
		t.Error("back trim apply wrong")
	}
	got := (TrimmingMeta{}).Induce("00042", "42")
	if len(got) != 1 || got[0].Key() != (FrontTrim{C: '0'}).Key() {
		t.Errorf("Induce(00042,42) = %v", got)
	}
	got = (TrimmingMeta{}).Induce("42000", "42")
	if len(got) != 1 || got[0].Key() != (BackTrim{C: '0'}).Key() {
		t.Errorf("Induce(42000,42) = %v", got)
	}
	// "0402" → "402": leading 0 stripped, but trimming would also have to
	// stop before the interior 0 — verification keeps it (run stops at '4').
	got = (TrimmingMeta{}).Induce("0402", "402")
	if len(got) != 1 {
		t.Errorf("Induce(0402,402) = %v", got)
	}
	// "0040" → "04" is not a front trim (out starts with the trim char).
	if got := (TrimmingMeta{}).Induce("0040", "04"); len(got) != 0 {
		t.Errorf("Induce(0040,04) = %v, want none", got)
	}
	if got := (TrimmingMeta{}).Induce("42", "42"); got != nil {
		t.Errorf("no-effect example induced trim: %v", got)
	}
}

func TestAffixing(t *testing.T) {
	p := Prefix{Y: "ID-"}
	if p.Apply("42") != "ID-42" {
		t.Error("prefix apply wrong")
	}
	s := Suffix{Y: " EUR"}
	if s.Apply("42") != "42 EUR" {
		t.Error("suffix apply wrong")
	}
	got := (AffixMeta{}).Induce("42", "ID-42")
	if len(got) != 1 || got[0].Key() != (Prefix{Y: "ID-"}).Key() {
		t.Errorf("Induce(42,ID-42) = %v", got)
	}
	got = (AffixMeta{}).Induce("42", "42 EUR")
	if len(got) != 1 || got[0].Key() != (Suffix{Y: " EUR"}).Key() {
		t.Errorf("Induce(42,42 EUR) = %v", got)
	}
	// Ambiguous: "aa" → "aaaa" could be either; both induced.
	got = (AffixMeta{}).Induce("aa", "aaaa")
	if len(got) != 2 {
		t.Errorf("Induce(aa,aaaa) = %v, want prefix and suffix", got)
	}
	if got := (AffixMeta{}).Induce("abc", "ab"); got != nil {
		t.Errorf("shrinking example induced affix: %v", got)
	}
}

func TestReplacement(t *testing.T) {
	f := PrefixReplace{Y: "9999123", Z: "2018070"}
	if f.Apply("99991231") != "20180701" {
		t.Error("Figure 1 date replacement wrong")
	}
	if f.Apply("20130416") != "20130416" {
		t.Error("non-matching value should pass through")
	}
	got := (ReplacementMeta{}).Induce("99991231", "20180701")
	var foundDate bool
	for _, g := range got {
		if pr, ok := g.(PrefixReplace); ok && pr.Y == "9999123" && pr.Z == "2018070" {
			foundDate = true
		}
	}
	if !foundDate {
		t.Errorf("Figure 1 date function not induced: %v", got)
	}
	// Suffix replacement: USD → EUR keeping amount prefix.
	got = (ReplacementMeta{}).Induce("100 USD", "100 EUR")
	var foundSfx bool
	for _, g := range got {
		if sr, ok := g.(SuffixReplace); ok && sr.Y == "USD" && sr.Z == "EUR" {
			foundSfx = true
			if sr.Apply("7 USD") != "7 EUR" {
				t.Error("suffix replacement does not generalise")
			}
		}
	}
	if !foundSfx {
		t.Errorf("suffix replacement not induced: %v", got)
	}
	// Deprefixing: empty Z is the inverse of prefixing.
	dp := PrefixReplace{Y: "ID-", Z: ""}
	if dp.Apply("ID-42") != "42" {
		t.Error("deprefixing wrong")
	}
	if got := (ReplacementMeta{}).Induce("x", "x"); got != nil {
		t.Errorf("no-effect example induced replacement: %v", got)
	}
}

func TestMapping(t *testing.T) {
	m := NewMapping(map[string]string{"0000": "0006", "0001": "0001"})
	if m.Apply("0000") != "0006" || m.Apply("0001") != "0001" {
		t.Error("mapping apply wrong")
	}
	if m.Apply("9999") != "9999" {
		t.Error("unmapped value should pass through")
	}
	if m.Params() != 4 || m.Len() != 2 {
		t.Errorf("Params = %d, Len = %d", m.Params(), m.Len())
	}
	if _, ok := m.Lookup("0000"); !ok {
		t.Error("Lookup miss")
	}
	if _, ok := m.Lookup("zz"); ok {
		t.Error("Lookup false hit")
	}
	e := m.Entries()
	if len(e) != 2 || e[0][0] != "0000" || e[1][1] != "0001" {
		t.Errorf("Entries = %v", e)
	}
	// Deterministic keys regardless of construction order.
	m2 := NewMapping(map[string]string{"0001": "0001", "0000": "0006"})
	if m.Key() != m2.Key() {
		t.Error("mapping key not canonical")
	}
	big := map[string]string{}
	for _, k := range []string{"a", "b", "c", "d", "e", "f"} {
		big[k] = k + "!"
	}
	if s := NewMapping(big).String(); !strings.Contains(s, "entries") {
		t.Errorf("large mapping should elide: %s", s)
	}
}

func TestNegation(t *testing.T) {
	n := Negation{}
	if n.Apply("0") != "1" || n.Apply("1") != "0" || n.Apply("-") != "-" {
		t.Error("negation apply wrong")
	}
	if got := (NegationMeta{}).Induce("0", "1"); len(got) != 1 {
		t.Errorf("Induce(0,1) = %v", got)
	}
	if got := (NegationMeta{}).Induce("0", "0"); got != nil {
		t.Errorf("Induce(0,0) = %v", got)
	}
}

func TestInduceAllDedup(t *testing.T) {
	metas := DefaultMetas()
	fs := InduceAll(metas, "65", "0.065")
	seen := make(map[string]bool)
	for _, f := range fs {
		if seen[f.Key()] {
			t.Errorf("duplicate candidate %q", f.Key())
		}
		seen[f.Key()] = true
	}
	// Constant and scaling must both be present.
	if !seen[(Constant{C: "0.065"}).Key()] {
		t.Error("constant candidate missing")
	}
	d, _ := NewDivision("1000")
	if !seen[d.Key()] {
		t.Error("scaling candidate missing")
	}
}

// Property: every induced candidate reproduces its generating example.
func TestQuickInductionReproducesExample(t *testing.T) {
	metas := DefaultMetas()
	f := func(in, out string) bool {
		for _, cand := range InduceAll(metas, in, out) {
			if cand.Apply(in) != out {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Apply is deterministic and total for arbitrary inputs.
func TestQuickApplyTotal(t *testing.T) {
	div, _ := NewDivision("7")
	add, _ := NewAdd("0.3")
	funcs := []Func{
		Identity{}, Upper{}, Lower{}, Constant{C: "c"}, div, add,
		FrontMask{M: "zz"}, BackMask{M: "zz"}, FrontTrim{C: 'a'},
		BackTrim{C: 'a'}, Prefix{Y: "p"}, Suffix{Y: "s"},
		PrefixReplace{Y: "ab", Z: "cd"}, SuffixReplace{Y: "ab", Z: "cd"},
		NewMapping(map[string]string{"k": "v"}), Negation{},
	}
	f := func(x string) bool {
		for _, fn := range funcs {
			if fn.Apply(x) != fn.Apply(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
