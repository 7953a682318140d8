package value

import (
	"math/big"
	"testing"
	"testing/quick"
)

// refDecimal runs the same operation through pure big.Rat arithmetic — the
// pre-fast-path reference semantics every int64 shortcut must reproduce.
func refRat(s string) (*big.Rat, bool) {
	var r big.Rat
	_, ok := r.SetString(normalizeForSetString(s))
	return &r, ok
}

// corpus mixes the shapes the datasets and metafuncs produce: small ints,
// decimals, negatives, zero forms, and magnitudes around the int64 overflow
// boundary that force the big fallback.
var corpus = []string{
	"0", "-0", "1", "-1", "7", "42", "007", "0000", "6540", "9.8", "6.54",
	"80000", "422.4", "0.065", "-6530.2", "99991231", "0.5", ".5", "3.",
	"+3.", "-.5", "1.500", "123456789.123456789", "-123456789.123456789",
	"9223372036854775807", "9223372036854775808", "-9223372036854775809",
	"92233720368547758079223372036854775807", "0.000000000000000000000001",
	"18446744073709551616", "1000000", "0.001", "-0.001", "2.5", "0.1",
}

// TestFastPathMatchesBigRat pins every binary operation's fast path to the
// big.Rat reference over the full corpus cross product.
func TestFastPathMatchesBigRat(t *testing.T) {
	for _, as := range corpus {
		for _, bs := range corpus {
			da, okA := Parse(as)
			db, okB := Parse(bs)
			ra, rokA := refRat(as)
			rb, rokB := refRat(bs)
			if okA != rokA || okB != rokB {
				t.Fatalf("Parse(%q)=%v, ref=%v; Parse(%q)=%v, ref=%v", as, okA, rokA, bs, okB, rokB)
			}
			if !okA || !okB {
				continue
			}
			check := func(op string, got Decimal, want *big.Rat) {
				if got.bigRat().Cmp(want) != 0 {
					t.Errorf("%q %s %q = %s, want %s", as, op, bs, got.RatString(), want.RatString())
				}
			}
			check("+", da.Add(db), new(big.Rat).Add(ra, rb))
			check("-", da.Sub(db), new(big.Rat).Sub(ra, rb))
			check("*", da.Mul(db), new(big.Rat).Mul(ra, rb))
			if q, ok := da.Div(db); ok != (rb.Sign() != 0) {
				t.Errorf("Div(%q, %q) ok=%v, want %v", as, bs, ok, rb.Sign() != 0)
			} else if ok {
				check("/", q, new(big.Rat).Quo(ra, rb))
			}
			if got, want := da.Cmp(db), ra.Cmp(rb); got != want {
				t.Errorf("Cmp(%q, %q) = %d, want %d", as, bs, got, want)
			}
		}
	}
}

// TestFormatMatchesBigFormatter pins the int64 formatter to the big.Int
// formatter for every corpus value.
func TestFormatMatchesBigFormatter(t *testing.T) {
	for _, s := range corpus {
		d, ok := Parse(s)
		if !ok {
			continue
		}
		got, gok := d.Format()
		want, wok := Decimal{rat: d.bigRat()}.formatBig()
		if gok != wok || got != want {
			t.Errorf("Format(%q) = %q,%v; big formatter = %q,%v", s, got, gok, want, wok)
		}
	}
}

// TestIsCanonicalMatchesReference pins the syntactic check to its semantic
// definition Canonical(s) == s.
func TestIsCanonicalMatchesReference(t *testing.T) {
	extra := []string{"", ".", "-", "+", "1.", "1.0", "0.10", "01", "-01",
		"10", "-10", "0.01", "1e5", "1.2.3", "--1", " 1", "0.", "-0.5", "-0.50"}
	for _, s := range append(append([]string(nil), corpus...), extra...) {
		want := false
		if c, ok := Canonical(s); ok && c == s {
			want = true
		}
		if got := IsCanonical(s); got != want {
			t.Errorf("IsCanonical(%q) = %v, want %v", s, got, want)
		}
	}
}

// TestQuickCanonicalAgreement fuzzes random fractions through Format and
// checks IsCanonical holds on every canonical rendering.
func TestQuickCanonicalAgreement(t *testing.T) {
	f := func(n int64, fracPow uint8) bool {
		den := int64(1)
		for i := 0; i < int(fracPow%7); i++ {
			den *= 10
		}
		q, ok := FromInt(n).Div(FromInt(den))
		if !ok {
			return false
		}
		s, ok := q.Format()
		if !ok {
			return false
		}
		return IsCanonical(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestFastPathAllocationFree pins the point of the int64 representation:
// parse, arithmetic, canonicality checks and buffer-reusing formatting of
// ordinary snapshot values allocate nothing.
func TestFastPathAllocationFree(t *testing.T) {
	buf := make([]byte, 0, 32)
	thousand := FromInt(1000)
	allocs := testing.AllocsPerRun(100, func() {
		d, _ := Parse("422400")
		q, _ := d.Div(thousand)
		buf, _ = q.AppendFormat(buf[:0])
		_ = IsCanonical("422.4")
		_ = d.Cmp(q)
		_ = d.Sub(q)
	})
	if allocs != 0 {
		t.Errorf("fast path allocates %v objects per op, want 0", allocs)
	}
}

// refString is String's pre-fast-path formula for non-terminating values.
func refString(d Decimal) string {
	if s, ok := d.Format(); ok {
		return s
	}
	f, _ := d.bigRat().Float64()
	return big.NewRat(0, 1).SetFloat64(f).FloatString(6) + "…"
}

// TestStringMatchesBigRat pins the strconv route of String/AppendString to
// the big.Rat formula: corpus quotients, random fractions, and fractions
// whose nearest float64 is an odd multiple of 1/128 — the exact six-digit
// ties strconv and big.Rat round differently.
func TestStringMatchesBigRat(t *testing.T) {
	check := func(d Decimal) {
		t.Helper()
		if got, want := d.String(), refString(d); got != want {
			t.Errorf("String(%s) = %q, want %q", d.RatString(), got, want)
		}
		if got := string(d.AppendString([]byte("k:"))); got != "k:"+d.String() {
			t.Errorf("AppendString(%s) = %q, String() = %q", d.RatString(), got, d.String())
		}
	}
	for _, as := range corpus {
		for _, bs := range corpus {
			da, okA := Parse(as)
			db, okB := Parse(bs)
			if q, ok := da.Div(db); okA && okB && ok {
				check(q)
			}
		}
	}
	if err := quick.Check(func(num, den int64) bool {
		if den == 0 {
			return true
		}
		d, _ := FromInt(num).Div(FromInt(den))
		return d.String() == refString(d) && FromInt(num>>12).Mul(d).String() == refString(FromInt(num>>12).Mul(d))
	}, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
	ties := 0
	for j := int64(1); j < 4000; j += 2 { // tie value j/128
		for den := int64(1)<<47 + 1; den < int64(1)<<47+300; den += 2 {
			if (j*den+1)%128 != 0 {
				continue
			}
			d := reduce((j*den+1)/128, den) // j/128 + 1/(128·den)
			if f, _ := d.bigRat().Float64(); f == float64(j)/128 {
				ties++
			}
			check(d)
			check(d.Neg())
		}
	}
	if ties == 0 {
		t.Error("no fraction rounded onto a tie; the construction no longer covers the slow route")
	}
}
