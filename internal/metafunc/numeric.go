package metafunc

import (
	"fmt"

	"affidavit/internal/value"
)

// Numeric functions operate only on values in canonical decimal form
// (value.IsCanonical); every other input passes through unchanged. This
// keeps zero-padded identifiers like "0042" out of numeric territory: a
// candidate x ↦ x+6 induced from "0000" ↦ "0006" would produce "6" and is
// rejected by the verification gate.

// Add is x ↦ x + y with ψ = 1. Negative y is the subtraction inverse.
type Add struct {
	Y value.Decimal
}

// NewAdd builds an Add from a decimal string parameter, e.g. "-6530.2".
func NewAdd(y string) (Add, error) {
	d, ok := value.Parse(y)
	if !ok {
		return Add{}, fmt.Errorf("metafunc: %q is not a decimal addend", y)
	}
	return Add{Y: d}, nil
}

func (f Add) Apply(x string) string {
	d, ok := value.Parse(x)
	if !ok || !value.IsCanonical(x) {
		return x
	}
	out, ok := d.Add(f.Y).Format()
	if !ok {
		return x
	}
	return out
}

func (f Add) Params() int { return 1 }

func (f Add) Key() string { return "add:" + f.Y.String() }

func (f Add) AppendKey(dst []byte) []byte { return f.Y.AppendString(append(dst, "add:"...)) }

func (f Add) String() string {
	if s, ok := f.Y.Format(); ok && len(s) > 0 && s[0] == '-' {
		return fmt.Sprintf("x ↦ x − %s", s[1:])
	}
	return fmt.Sprintf("x ↦ x + %s", f.Y)
}

// AdditionMeta induces Add(out − in) from canonical numeric examples.
type AdditionMeta struct{}

func (AdditionMeta) Name() string { return "addition" }

func (AdditionMeta) Induce(in, out string) []Func {
	di, ok1 := value.Parse(in)
	do, ok2 := value.Parse(out)
	if !ok1 || !ok2 || !value.IsCanonical(in) || !value.IsCanonical(out) {
		return nil
	}
	y := do.Sub(di)
	if y.IsZero() {
		return nil // identity-equivalent on this example
	}
	return verified(in, out, []Func{Add{Y: y}})
}

// Scale is the multiplicative family x ↦ x · k with ψ = 1. The paper's
// division x ↦ x / y is Scale with k = 1/y; its inverse, multiplication, is
// Scale with k = y. Collapsing both into one canonical family means the
// same transformation never competes against itself during ranking.
type Scale struct {
	K value.Decimal
}

// NewDivision builds the paper's division x ↦ x / y.
func NewDivision(y string) (Scale, error) {
	d, ok := value.Parse(y)
	if !ok || d.IsZero() {
		return Scale{}, fmt.Errorf("metafunc: %q is not a usable divisor", y)
	}
	k, _ := value.FromInt(1).Div(d)
	return Scale{K: k}, nil
}

// NewMultiplication builds the inverse variant x ↦ x · y.
func NewMultiplication(y string) (Scale, error) {
	d, ok := value.Parse(y)
	if !ok {
		return Scale{}, fmt.Errorf("metafunc: %q is not a decimal factor", y)
	}
	return Scale{K: d}, nil
}

func (f Scale) Apply(x string) string {
	d, ok := value.Parse(x)
	if !ok || !value.IsCanonical(x) {
		return x
	}
	prod := d.Mul(f.K)
	out, ok := prod.Format()
	if !ok {
		// Non-terminating expansion: the mathematical result exists but has
		// no decimal rendering, so it can never equal an observed attribute
		// value. Falling back to the identity here would let a scale factor
		// act as a one-value rewrite that leaves everything else untouched
		// — a degenerate explanation the paper's function space does not
		// contain. Return an unmatchable marker instead (NUL never occurs
		// in attribute values).
		return "\x00" + prod.RatString()
	}
	return out
}

func (f Scale) Params() int { return 1 }

func (f Scale) Key() string { return "scale:" + f.K.String() }

func (f Scale) AppendKey(dst []byte) []byte { return f.K.AppendString(append(dst, "scale:"...)) }

func (f Scale) String() string {
	// Render 1/n factors in the paper's division notation.
	if inv, ok := value.FromInt(1).Div(f.K); ok {
		if s, exact := inv.Format(); exact {
			if d, _ := value.Parse(s); d.Cmp(value.FromInt(1)) > 0 {
				return fmt.Sprintf("x ↦ x / %s", s)
			}
		}
	}
	return fmt.Sprintf("x ↦ x · %s", f.K)
}

// ScalingMeta induces Scale(out/in) from canonical numeric examples with
// nonzero values. Division and multiplication are the same family here, so
// one meta covers both of the paper's Table-1 rows.
type ScalingMeta struct{}

func (ScalingMeta) Name() string { return "scaling" }

func (ScalingMeta) Induce(in, out string) []Func {
	di, ok1 := value.Parse(in)
	do, ok2 := value.Parse(out)
	if !ok1 || !ok2 || !value.IsCanonical(in) || !value.IsCanonical(out) {
		return nil
	}
	if di.IsZero() || do.IsZero() {
		return nil // 0 ↦ x is unlearnable, x ↦ 0 degenerates to constant
	}
	k, ok := do.Div(di)
	if !ok || k.IsOne() {
		return nil
	}
	return verified(in, out, []Func{Scale{K: k}})
}
