// Package value provides exact decimal arithmetic on attribute values.
//
// Attribute values in a problem instance are strings. The numeric meta
// functions (addition, division, multiplication) must reproduce the string
// formatting conventions of the paper's running example exactly:
// 6540 / 1000 must print as "6.54", 80000 / 1000 as "80", 0 / 1000 as "0".
// Floating point cannot guarantee this, so all numeric work is exact
// rational arithmetic. The representation is a reduced int64 fraction with
// overflow-checked operations — snapshot values are short decimal strings,
// so virtually every parse, comparison, and arithmetic step stays on the
// allocation-free fast path — and any operation that would overflow int64
// promotes the value to a math/big.Rat fallback with identical semantics.
package value

import (
	"math"
	"math/big"
	"math/bits"
	"strconv"
	"strings"
)

// maxFracDigits bounds the decimal expansion produced by Format. A rational
// whose reduced denominator contains prime factors other than 2 and 5 has a
// non-terminating decimal expansion; such values are reported as not
// representable rather than silently rounded, because a rounded value could
// never equal an observed attribute value anyway.
const maxFracDigits = 24

// Decimal is an immutable exact decimal number: num/den with den > 0 and
// gcd(|num|, den) == 1, unless rat is non-nil, in which case the value lives
// in the big.Rat fallback (magnitudes beyond int64) and num/den are unused.
type Decimal struct {
	num int64
	den int64 // > 0 on the fast path; 0 only for the zero value (== 0/1)
	rat *big.Rat
}

// norm returns the fast-path fraction with den fixed up for the zero value.
func (d Decimal) frac() (int64, int64) {
	if d.den == 0 {
		return d.num, 1
	}
	return d.num, d.den
}

// bigRat returns the value as a big.Rat (allocating; fallback paths only).
func (d Decimal) bigRat() *big.Rat {
	if d.rat != nil {
		return d.rat
	}
	n, de := d.frac()
	return big.NewRat(n, de)
}

// fromRat normalises a big.Rat result, demoting back to the fast path when
// it fits int64.
func fromRat(r *big.Rat) Decimal {
	if r.Num().IsInt64() && r.Denom().IsInt64() {
		return Decimal{num: r.Num().Int64(), den: r.Denom().Int64()}
	}
	return Decimal{rat: r}
}

func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// reduce builds a fast-path decimal from a (possibly unreduced) fraction.
func reduce(num, den int64) Decimal {
	if den < 0 {
		num, den = -num, -den
	}
	if num == 0 {
		return Decimal{num: 0, den: 1}
	}
	if g := gcd64(num, den); g > 1 {
		num /= g
		den /= g
	}
	return Decimal{num: num, den: den}
}

// mulOvf multiplies with overflow detection.
func mulOvf(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	hi, lo := bits.Mul64(uint64(abs64(a)), uint64(abs64(b)))
	if hi != 0 || lo > 1<<63-1 {
		return 0, false
	}
	p := int64(lo)
	if (a < 0) != (b < 0) {
		p = -p
	}
	return p, true
}

func abs64(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}

func addOvf(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

var pow10 = [...]int64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18}

// Parse interprets s as a decimal number. It accepts an optional leading
// sign, digits, and at most one decimal point ("-12", "0.065", "+3.",
// ".5"). It rejects empty strings, lone signs/points, exponents, and any
// other character. The boolean reports success.
func Parse(s string) (Decimal, bool) {
	if len(s) == 0 {
		return Decimal{}, false
	}
	i := 0
	neg := false
	if s[i] == '+' || s[i] == '-' {
		neg = s[i] == '-'
		i++
	}
	// Fast path: accumulate up to 18 significant digits into an int64.
	var mant int64
	digits, frac, points := 0, 0, 0
	fits := true
	for ; i < len(s); i++ {
		switch {
		case s[i] >= '0' && s[i] <= '9':
			digits++
			if mant > (1<<63-1-9)/10 {
				fits = false
			} else {
				mant = mant*10 + int64(s[i]-'0')
			}
			if points > 0 {
				frac++
			}
		case s[i] == '.':
			points++
			if points > 1 {
				return Decimal{}, false
			}
		default:
			return Decimal{}, false
		}
	}
	if digits == 0 {
		return Decimal{}, false
	}
	if fits && frac < len(pow10) {
		if neg {
			mant = -mant
		}
		return reduce(mant, pow10[frac]), true
	}
	var r big.Rat
	if _, ok := r.SetString(normalizeForSetString(s)); !ok {
		return Decimal{}, false
	}
	return fromRat(&r), true
}

// normalizeForSetString massages forms big.Rat.SetString rejects
// ("3." and ".5") into acceptable ones.
func normalizeForSetString(s string) string {
	if strings.HasSuffix(s, ".") {
		return s + "0"
	}
	core := strings.TrimLeft(s, "+-")
	if strings.HasPrefix(core, ".") {
		return s[:len(s)-len(core)] + "0" + core
	}
	return s
}

// IsNumeric reports whether s parses as a decimal number.
func IsNumeric(s string) bool {
	_, ok := Parse(s)
	return ok
}

// FromInt returns the decimal for an integer.
func FromInt(n int64) Decimal {
	return Decimal{num: n, den: 1}
}

// AppendFormat appends d's canonical form to b and returns the extended
// buffer; ok is false (and b is returned unchanged) if the decimal expansion
// does not terminate within maxFracDigits. It is Format without the string
// allocation — hot paths hand in a reusable or stack buffer.
func (d Decimal) AppendFormat(b []byte) ([]byte, bool) {
	if d.rat != nil {
		s, ok := d.formatBig()
		if !ok {
			return b, false
		}
		return append(b, s...), true
	}
	num, den := d.frac()
	if num == 0 {
		return append(b, '0'), true
	}
	neg := num < 0
	if neg {
		num = -num
	}
	// den = 2^a * 5^b iff the expansion terminates (the fraction is
	// reduced); scale num so den becomes 10^max(a,b).
	a, c := 0, 0
	work := den
	for work&1 == 0 {
		work >>= 1
		a++
	}
	for work%5 == 0 {
		work /= 5
		c++
	}
	if work != 1 {
		return b, false // non-terminating decimal expansion
	}
	frac := a
	if c > frac {
		frac = c
	}
	if frac > maxFracDigits {
		return b, false
	}
	// num/den == (num * (10^frac / den)) / 10^frac; den divides 10^frac.
	// frac ≤ 18 here: den ≤ 2^63 bounds a ≤ 62 but work==1 forces
	// den = 2^a·5^c ≤ int64 range, and 10^frac/den fits whenever frac ≤ 18;
	// larger scaled values overflow to the big path.
	var scaled int64
	if frac < len(pow10) {
		m := pow10[frac] / den
		var ok bool
		if scaled, ok = mulOvf(num, m); !ok {
			return d.bigAppendFormat(b)
		}
	} else {
		return d.bigAppendFormat(b)
	}
	var digits [20]byte
	n := len(digits)
	for scaled > 0 {
		n--
		digits[n] = byte('0' + scaled%10)
		scaled /= 10
	}
	ds := digits[n:]
	if neg {
		b = append(b, '-')
	}
	if frac == 0 {
		return append(b, ds...), true
	}
	intLen := len(ds) - frac
	if intLen <= 0 {
		b = append(b, '0', '.')
		for i := 0; i < -intLen; i++ {
			b = append(b, '0')
		}
	} else {
		b = append(b, ds[:intLen]...)
		b = append(b, '.')
		ds = ds[intLen:]
	}
	end := len(ds)
	for end > 0 && ds[end-1] == '0' {
		end--
	}
	if end == 0 {
		// All-fractional zeros cannot happen: the fraction is reduced, so
		// frac is minimal and the last digit is nonzero. Drop the point.
		return b[:len(b)-1], true
	}
	return append(b, ds[:end]...), true
}

// bigAppendFormat formats through the big.Rat slow path (rare: values whose
// scaled integer form exceeds int64).
func (d Decimal) bigAppendFormat(b []byte) ([]byte, bool) {
	s, ok := Decimal{rat: d.bigRat()}.formatBig()
	if !ok {
		return b, false
	}
	return append(b, s...), true
}

// Format renders d in canonical form: minus sign for negatives, no leading
// zeros (except a single "0" before the point), no trailing fractional
// zeros, no decimal point unless needed, and "0" for zero. The boolean is
// false if the decimal expansion does not terminate within maxFracDigits.
func (d Decimal) Format() (string, bool) {
	if d.rat != nil {
		return d.formatBig()
	}
	var buf [32]byte
	b, ok := d.AppendFormat(buf[:0])
	if !ok {
		return "", false
	}
	return string(b), true
}

// formatBig is the original big.Int formatter, kept for the fallback
// representation.
func (d Decimal) formatBig() (string, bool) {
	r := d.bigRat()
	num := new(big.Int).Set(r.Num())
	den := new(big.Int).Set(r.Denom())
	neg := num.Sign() < 0
	if neg {
		num.Neg(num)
	}
	if num.Sign() == 0 {
		return "0", true
	}
	a, b := 0, 0
	two, five, ten := big.NewInt(2), big.NewInt(5), big.NewInt(10)
	rem := new(big.Int)
	work := new(big.Int).Set(den)
	for {
		q, r := new(big.Int).QuoRem(work, two, rem)
		if r.Sign() != 0 {
			break
		}
		work = q
		a++
	}
	for {
		q, r := new(big.Int).QuoRem(work, five, rem)
		if r.Sign() != 0 {
			break
		}
		work = q
		b++
	}
	if work.Cmp(big.NewInt(1)) != 0 {
		return "", false // non-terminating decimal expansion
	}
	frac := a
	if b > a {
		frac = b
	}
	if frac > maxFracDigits {
		return "", false
	}
	scale := new(big.Int).Exp(ten, big.NewInt(int64(frac)), nil)
	scaled := new(big.Int).Mul(num, scale)
	scaled.Quo(scaled, den)
	digits := scaled.String()
	var sb strings.Builder
	if neg {
		sb.WriteByte('-')
	}
	if frac == 0 {
		sb.WriteString(digits)
		return sb.String(), true
	}
	if len(digits) <= frac {
		digits = strings.Repeat("0", frac-len(digits)+1) + digits
	}
	intPart := digits[:len(digits)-frac]
	fracPart := strings.TrimRight(digits[len(digits)-frac:], "0")
	sb.WriteString(intPart)
	if fracPart != "" {
		sb.WriteByte('.')
		sb.WriteString(fracPart)
	}
	return sb.String(), true
}

// Add returns d + o.
func (d Decimal) Add(o Decimal) Decimal {
	if d.rat == nil && o.rat == nil {
		dn, dd := d.frac()
		on, od := o.frac()
		if a, ok := mulOvf(dn, od); ok {
			if b, ok := mulOvf(on, dd); ok {
				if s, ok := addOvf(a, b); ok {
					if de, ok := mulOvf(dd, od); ok {
						return reduce(s, de)
					}
				}
			}
		}
	}
	return fromRat(new(big.Rat).Add(d.bigRat(), o.bigRat()))
}

// Sub returns d − o.
func (d Decimal) Sub(o Decimal) Decimal {
	return d.Add(o.Neg())
}

// Neg returns −d.
func (d Decimal) Neg() Decimal {
	if d.rat == nil {
		n, de := d.frac()
		return Decimal{num: -n, den: de}
	}
	return fromRat(new(big.Rat).Neg(d.rat))
}

// Mul returns d · o.
func (d Decimal) Mul(o Decimal) Decimal {
	if d.rat == nil && o.rat == nil {
		dn, dd := d.frac()
		on, od := o.frac()
		// Cross-reduce first so products stay small.
		if g := gcd64(dn, od); g > 1 {
			dn /= g
			od /= g
		}
		if g := gcd64(on, dd); g > 1 {
			on /= g
			dd /= g
		}
		if n, ok := mulOvf(dn, on); ok {
			if de, ok := mulOvf(dd, od); ok {
				return reduce(n, de)
			}
		}
	}
	return fromRat(new(big.Rat).Mul(d.bigRat(), o.bigRat()))
}

// Div returns d / o. The boolean is false when o is zero.
func (d Decimal) Div(o Decimal) (Decimal, bool) {
	if o.IsZero() {
		return Decimal{}, false
	}
	if d.rat == nil && o.rat == nil {
		on, od := o.frac()
		return d.Mul(Decimal{num: od, den: on}.normSign()), true
	}
	return fromRat(new(big.Rat).Quo(d.bigRat(), o.bigRat())), true
}

// normSign moves a negative denominator's sign to the numerator.
func (d Decimal) normSign() Decimal {
	if d.den < 0 {
		return Decimal{num: -d.num, den: -d.den}
	}
	return d
}

// IsZero reports whether d is zero.
func (d Decimal) IsZero() bool {
	if d.rat != nil {
		return d.rat.Sign() == 0
	}
	return d.num == 0
}

// IsOne reports whether d is one.
func (d Decimal) IsOne() bool {
	if d.rat != nil {
		return d.rat.Cmp(ratOne) == 0
	}
	n, de := d.frac()
	return n == 1 && de == 1
}

var ratOne = big.NewRat(1, 1)

// Cmp compares d and o, returning -1, 0, or +1.
func (d Decimal) Cmp(o Decimal) int {
	if d.rat == nil && o.rat == nil {
		dn, dd := d.frac()
		on, od := o.frac()
		if a, ok := mulOvf(dn, od); ok {
			if b, ok := mulOvf(on, dd); ok {
				switch {
				case a < b:
					return -1
				case a > b:
					return 1
				}
				return 0
			}
		}
	}
	return d.bigRat().Cmp(o.bigRat())
}

// Equal reports whether d and o denote the same number.
func (d Decimal) Equal(o Decimal) bool { return d.Cmp(o) == 0 }

// String implements fmt.Stringer using the canonical format; values with
// non-terminating expansions render with a trailing "…" marker (they can
// never equal an attribute value, so this form is for diagnostics and
// function keys only).
func (d Decimal) String() string {
	var buf [40]byte
	return string(d.AppendString(buf[:0]))
}

// AppendString appends String() to b. A non-terminating value renders as
// its nearest float64 rounded half away from zero to six fractional digits.
// strconv prints the same digits except on an exact tie — only odd
// multiples of 1/128 have one at six digits, and strconv breaks it to even —
// and a quotient of two int64s below 2^53 is that nearest float64; every
// other value takes the exact big.Rat route.
func (d Decimal) AppendString(b []byte) []byte {
	if out, ok := d.AppendFormat(b); ok {
		return out
	}
	const exact = 1 << 53
	if d.rat == nil && -exact < d.num && d.num < exact && d.den < exact {
		f := float64(d.num) / float64(d.den)
		if g := f * 128; g != math.Floor(g) || math.Mod(g, 2) == 0 {
			return append(strconv.AppendFloat(b, f, 'f', 6, 64), "…"...)
		}
	}
	f, _ := d.bigRat().Float64()
	return append(append(b, big.NewRat(0, 1).SetFloat64(f).FloatString(6)...), "…"...)
}

// RatString returns the exact num/den form, used to build collision-free
// markers for values whose decimal expansion does not terminate.
func (d Decimal) RatString() string { return d.bigRat().RatString() }

// Canonical parses s and re-formats it canonically. The boolean is false
// when s is not numeric or has a non-terminating expansion (impossible for
// parsed decimals, but kept for symmetry).
func Canonical(s string) (string, bool) {
	d, ok := Parse(s)
	if !ok {
		return "", false
	}
	return d.Format()
}

// IsCanonical reports whether s is numeric and already in canonical form —
// equivalently, whether Canonical(s) == s. The check is purely syntactic
// (no parse, no allocation): canonical form is an optional minus sign, an
// integer part without leading zeros (a single "0" is allowed), and an
// optional fractional part that is non-empty and has no trailing zeros;
// "-0" and bare "+"-signed forms are never canonical. Numeric meta
// functions only announce their effect on canonical inputs; zero-padded
// identifiers like "0042" stay out of numeric territory.
func IsCanonical(s string) bool {
	i := 0
	neg := false
	if i < len(s) && s[i] == '-' {
		neg = true
		i++
	}
	// Integer part: "0" or [1-9][0-9]*.
	start := i
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	intLen := i - start
	if intLen == 0 {
		return false
	}
	if intLen > 1 && s[start] == '0' {
		return false
	}
	if i == len(s) {
		// Pure integer; reject "-0".
		return !(neg && intLen == 1 && s[start] == '0')
	}
	if s[i] != '.' {
		return false
	}
	i++
	fracStart := i
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	if i != len(s) || i == fracStart {
		return false // trailing junk or empty fraction
	}
	if s[len(s)-1] == '0' {
		return false // trailing fractional zero
	}
	// A nonzero fractional digit exists (last digit ≠ '0'), so a leading
	// minus is never a "-0" form here.
	return true
}
