// Package metafunc implements the meta functions of the paper's Table 1 and
// their inverse variants: identity, upper/lowercasing, constant values,
// numeric addition and scaling (division/multiplication), front/back
// masking, front/back character trimming, prefixing/suffixing, prefix/suffix
// replacement, and explicit value mappings.
//
// A Meta is a family of functions whose parameters are learnable from a
// single input–output example (Section 4.4.1). Induce(in, out) returns every
// instantiation of the family consistent with the example *whose effect is
// visible on it* — e.g. front-char trimming is never induced from an example
// without leading characters to trim, because no example of that shape could
// reveal the trim character. This is exactly the visibility notion behind
// the paper's θ parameter.
//
// All functions are total: outside their natural domain they behave as the
// identity, following Figure 1's "otherwise x ↦ x" convention (see DESIGN.md
// §4.4). String operations work on bytes; the evaluation corpora are ASCII.
package metafunc

import (
	"fmt"
	"strconv"
	"strings"
)

// Func is an instantiated attribute transformation function f ∈ F.
type Func interface {
	// Apply transforms one attribute value. Total; identity outside the
	// function's natural domain.
	Apply(string) string
	// Params is ψ(f): the number of data values needed to instantiate the
	// function from its meta function (Def 3.9).
	Params() int
	// Key is a canonical identity: two Funcs with equal keys compute the
	// same transformation.
	Key() string
	// String renders the function in the paper's x ↦ … notation.
	String() string
}

// Meta is a meta function: a family of Funcs learnable from one example.
type Meta interface {
	// Name identifies the family (used in reports and generator configs).
	Name() string
	// Induce returns all instantiations f with f(in) == out whose effect is
	// visible on the example. May be empty.
	Induce(in, out string) []Func
}

// KeyAppender is an optional fast path of a Func: AppendKey appends exactly
// the bytes of Key() to dst and returns the extended slice. Induction keys
// millions of short-lived functions; with it a function that was seen before
// is recognised from a reused buffer without materialising its key string.
type KeyAppender interface {
	AppendKey(dst []byte) []byte
}

// AppendKey appends f.Key() to dst, through f's KeyAppender when it has one.
func AppendKey(dst []byte, f Func) []byte {
	if ka, ok := f.(KeyAppender); ok {
		return ka.AppendKey(dst)
	}
	return append(dst, f.Key()...)
}

// appendQuoted length-prefixes a parameter so Keys cannot collide. The
// rendering is "<len>:<s>", identical for every builder below.
func appendQuoted(dst []byte, s string) []byte {
	dst = strconv.AppendInt(dst, int64(len(s)), 10)
	dst = append(dst, ':')
	return append(dst, s...)
}

// appendKey1 and appendKey2 render prefix plus quoted parameters; key1 and
// key2 are their string forms, built in a stack buffer so a typical key
// costs the one allocation of its string. Key() sits on the refinement and
// state-key paths, so the fmt round trip the obvious Sprintf formulation
// costs is worth avoiding.
func appendKey1(dst []byte, prefix, s string) []byte {
	return appendQuoted(append(dst, prefix...), s)
}

func appendKey2(dst []byte, prefix, a, b string) []byte {
	return appendQuoted(appendKey1(dst, prefix, a), b)
}

func key1(prefix, s string) string {
	var tmp [64]byte
	return string(appendKey1(tmp[:0], prefix, s))
}

func key2(prefix, a, b string) string {
	var tmp [96]byte
	return string(appendKey2(tmp[:0], prefix, a, b))
}

// appendKeyByte is appendKey1 for a single-byte parameter.
func appendKeyByte(dst []byte, prefix string, c byte) []byte {
	return append(append(dst, prefix...), '1', ':', c)
}

func keyByte(prefix string, c byte) string {
	var tmp [16]byte
	return string(appendKeyByte(tmp[:0], prefix, c))
}

// verified filters candidates down to those that actually reproduce the
// generating example; induction bugs fail loudly in tests through this gate.
func verified(in, out string, fs []Func) []Func {
	kept := fs[:0]
	for _, f := range fs {
		if f.Apply(in) == out {
			kept = append(kept, f)
		}
	}
	return kept
}

// ---------------------------------------------------------------------------
// Identity

// Identity is x ↦ x with ψ = 0.
type Identity struct{}

func (Identity) Apply(x string) string       { return x }
func (Identity) Params() int                 { return 0 }
func (Identity) Key() string                 { return "id" }
func (Identity) AppendKey(dst []byte) []byte { return append(dst, "id"...) }
func (Identity) String() string              { return "x ↦ x" }

// IdentityMeta induces Identity exactly from no-change examples.
type IdentityMeta struct{}

func (IdentityMeta) Name() string { return "identity" }

func (IdentityMeta) Induce(in, out string) []Func {
	if in == out {
		return []Func{Identity{}}
	}
	return nil
}

// IsIdentity reports whether f is the identity function.
func IsIdentity(f Func) bool {
	_, ok := f.(Identity)
	return ok
}

// ---------------------------------------------------------------------------
// Casing

// Upper is x ↦ Uppercase(x) with ψ = 0.
type Upper struct{}

func (Upper) Apply(x string) string       { return strings.ToUpper(x) }
func (Upper) Params() int                 { return 0 }
func (Upper) Key() string                 { return "upper" }
func (Upper) AppendKey(dst []byte) []byte { return append(dst, "upper"...) }
func (Upper) String() string              { return "x ↦ Uppercase(x)" }

// Lower is the inverse variant, x ↦ Lowercase(x) with ψ = 0.
type Lower struct{}

func (Lower) Apply(x string) string       { return strings.ToLower(x) }
func (Lower) Params() int                 { return 0 }
func (Lower) Key() string                 { return "lower" }
func (Lower) AppendKey(dst []byte) []byte { return append(dst, "lower"...) }
func (Lower) String() string              { return "x ↦ Lowercase(x)" }

// CasingMeta induces Upper or Lower when the example shows a case change.
type CasingMeta struct{}

func (CasingMeta) Name() string { return "casing" }

func (CasingMeta) Induce(in, out string) []Func {
	if in == out {
		return nil // effect not visible
	}
	var fs []Func
	if strings.ToUpper(in) == out {
		fs = append(fs, Upper{})
	}
	if strings.ToLower(in) == out {
		fs = append(fs, Lower{})
	}
	return fs
}

// ---------------------------------------------------------------------------
// Constant

// Constant is x ↦ c with ψ = 1.
type Constant struct{ C string }

func (f Constant) Apply(string) string         { return f.C }
func (f Constant) Params() int                 { return 1 }
func (f Constant) Key() string                 { return key1("const:", f.C) }
func (f Constant) AppendKey(dst []byte) []byte { return appendKey1(dst, "const:", f.C) }
func (f Constant) String() string              { return fmt.Sprintf("x ↦ %q", f.C) }

// ConstantMeta induces x ↦ out from every example.
type ConstantMeta struct{}

func (ConstantMeta) Name() string { return "constant" }

func (ConstantMeta) Induce(in, out string) []Func {
	return []Func{Constant{C: out}}
}
