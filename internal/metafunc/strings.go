package metafunc

import (
	"fmt"
	"strings"
)

// ---------------------------------------------------------------------------
// Masking: .{|m|} ◦ x ↦ m ◦ x — overwrite a fixed-width margin with a mask.

// FrontMask is .{|m|} ◦ x ↦ m ◦ x with ψ = 1: the first |m| bytes are
// replaced by the mask. Inputs shorter than the mask pass through.
type FrontMask struct{ M string }

func (f FrontMask) Apply(x string) string {
	if len(x) < len(f.M) || f.M == "" {
		return x
	}
	return f.M + x[len(f.M):]
}

func (f FrontMask) Params() int                 { return 1 }
func (f FrontMask) Key() string                 { return key1("fmask:", f.M) }
func (f FrontMask) AppendKey(dst []byte) []byte { return appendKey1(dst, "fmask:", f.M) }
func (f FrontMask) String() string              { return fmt.Sprintf(".{%d}◦x ↦ %q◦x", len(f.M), f.M) }

// BackMask is the inverse variant: the last |m| bytes are replaced.
type BackMask struct{ M string }

func (f BackMask) Apply(x string) string {
	if len(x) < len(f.M) || f.M == "" {
		return x
	}
	return x[:len(x)-len(f.M)] + f.M
}

func (f BackMask) Params() int                 { return 1 }
func (f BackMask) Key() string                 { return key1("bmask:", f.M) }
func (f BackMask) AppendKey(dst []byte) []byte { return appendKey1(dst, "bmask:", f.M) }
func (f BackMask) String() string              { return fmt.Sprintf("x◦.{%d} ↦ x◦%q", len(f.M), f.M) }

// MaskingMeta induces the shortest mask consistent with the example, at
// either margin. Masking requires |in| == |out|.
type MaskingMeta struct{}

func (MaskingMeta) Name() string { return "masking" }

func (MaskingMeta) Induce(in, out string) []Func {
	if in == out || len(in) != len(out) || len(in) == 0 {
		return nil
	}
	var fs []Func
	// Shortest front mask: everything up to the last differing position.
	last := -1
	for i := 0; i < len(in); i++ {
		if in[i] != out[i] {
			last = i
		}
	}
	if last >= 0 {
		fs = append(fs, FrontMask{M: out[:last+1]})
	}
	// Shortest back mask: everything from the first differing position.
	first := -1
	for i := len(in) - 1; i >= 0; i-- {
		if in[i] != out[i] {
			first = i
		}
	}
	if first >= 0 {
		fs = append(fs, BackMask{M: out[first:]})
	}
	return verified(in, out, fs)
}

// ---------------------------------------------------------------------------
// Trimming: [c]* ◦ x ↦ x — strip a run of one character from a margin.

// FrontTrim is [c]* ◦ x ↦ x with ψ = 1: the leading run of C is removed.
type FrontTrim struct{ C byte }

func (f FrontTrim) Apply(x string) string {
	i := 0
	for i < len(x) && x[i] == f.C {
		i++
	}
	return x[i:]
}

func (f FrontTrim) Params() int                 { return 1 }
func (f FrontTrim) Key() string                 { return keyByte("ftrim:", f.C) }
func (f FrontTrim) AppendKey(dst []byte) []byte { return appendKeyByte(dst, "ftrim:", f.C) }
func (f FrontTrim) String() string              { return fmt.Sprintf("[%q]*◦x ↦ x", f.C) }

// BackTrim is the inverse variant: the trailing run of C is removed.
type BackTrim struct{ C byte }

func (f BackTrim) Apply(x string) string {
	i := len(x)
	for i > 0 && x[i-1] == f.C {
		i--
	}
	return x[:i]
}

func (f BackTrim) Params() int                 { return 1 }
func (f BackTrim) Key() string                 { return keyByte("btrim:", f.C) }
func (f BackTrim) AppendKey(dst []byte) []byte { return appendKeyByte(dst, "btrim:", f.C) }
func (f BackTrim) String() string              { return fmt.Sprintf("x◦[%q]* ↦ x", f.C) }

// TrimmingMeta induces trims from examples with a visible stripped run.
type TrimmingMeta struct{}

func (TrimmingMeta) Name() string { return "trimming" }

func (TrimmingMeta) Induce(in, out string) []Func {
	if in == out || len(in) <= len(out) || len(in) == 0 {
		return nil
	}
	var fs []Func
	if strings.HasSuffix(in, out) {
		c := in[0]
		if (FrontTrim{C: c}).Apply(in) == out {
			fs = append(fs, FrontTrim{C: c})
		}
	}
	if strings.HasPrefix(in, out) {
		c := in[len(in)-1]
		if (BackTrim{C: c}).Apply(in) == out {
			fs = append(fs, BackTrim{C: c})
		}
	}
	return verified(in, out, fs)
}

// ---------------------------------------------------------------------------
// Affixing: x ↦ y ◦ x and x ↦ x ◦ y.

// Prefix is x ↦ y ◦ x with ψ = 1.
type Prefix struct{ Y string }

func (f Prefix) Apply(x string) string       { return f.Y + x }
func (f Prefix) Params() int                 { return 1 }
func (f Prefix) Key() string                 { return key1("prefix:", f.Y) }
func (f Prefix) AppendKey(dst []byte) []byte { return appendKey1(dst, "prefix:", f.Y) }
func (f Prefix) String() string              { return fmt.Sprintf("x ↦ %q◦x", f.Y) }

// Suffix is the inverse variant x ↦ x ◦ y.
type Suffix struct{ Y string }

func (f Suffix) Apply(x string) string       { return x + f.Y }
func (f Suffix) Params() int                 { return 1 }
func (f Suffix) Key() string                 { return key1("suffix:", f.Y) }
func (f Suffix) AppendKey(dst []byte) []byte { return appendKey1(dst, "suffix:", f.Y) }
func (f Suffix) String() string              { return fmt.Sprintf("x ↦ x◦%q", f.Y) }

// AffixMeta induces prefixing/suffixing when out extends in at one margin.
type AffixMeta struct{}

func (AffixMeta) Name() string { return "affixing" }

func (AffixMeta) Induce(in, out string) []Func {
	if len(out) <= len(in) {
		return nil
	}
	var fs []Func
	if strings.HasSuffix(out, in) {
		fs = append(fs, Prefix{Y: out[:len(out)-len(in)]})
	}
	if strings.HasPrefix(out, in) {
		fs = append(fs, Suffix{Y: out[len(in):]})
	}
	return verified(in, out, fs)
}

// ---------------------------------------------------------------------------
// Replacement: y ◦ x ↦ z ◦ x and x ◦ y ↦ x ◦ z.

// PrefixReplace is y ◦ x ↦ z ◦ x with ψ = 2; values that do not start with
// Y pass through (Figure 1's f_Date with "otherwise x ↦ x"). Z may be empty,
// which removes the prefix — the inverse of prefixing.
type PrefixReplace struct{ Y, Z string }

func (f PrefixReplace) Apply(x string) string {
	if f.Y == "" || !strings.HasPrefix(x, f.Y) {
		return x
	}
	return f.Z + x[len(f.Y):]
}

func (f PrefixReplace) Params() int                 { return 2 }
func (f PrefixReplace) Key() string                 { return key2("pfxrep:", f.Y, f.Z) }
func (f PrefixReplace) AppendKey(dst []byte) []byte { return appendKey2(dst, "pfxrep:", f.Y, f.Z) }
func (f PrefixReplace) String() string {
	return fmt.Sprintf("%q◦x ↦ %q◦x, otherwise x ↦ x", f.Y, f.Z)
}

// SuffixReplace is the inverse variant x ◦ y ↦ x ◦ z.
type SuffixReplace struct{ Y, Z string }

func (f SuffixReplace) Apply(x string) string {
	if f.Y == "" || !strings.HasSuffix(x, f.Y) {
		return x
	}
	return x[:len(x)-len(f.Y)] + f.Z
}

func (f SuffixReplace) Params() int                 { return 2 }
func (f SuffixReplace) Key() string                 { return key2("sfxrep:", f.Y, f.Z) }
func (f SuffixReplace) AppendKey(dst []byte) []byte { return appendKey2(dst, "sfxrep:", f.Y, f.Z) }
func (f SuffixReplace) String() string {
	return fmt.Sprintf("x◦%q ↦ x◦%q, otherwise x ↦ x", f.Y, f.Z)
}

// ReplacementMeta induces the most specific replacement consistent with the
// example: the shared remainder is the longest common suffix (for prefix
// replacement) or prefix (for suffix replacement), which minimises the
// parameter text and maximises generalisation.
type ReplacementMeta struct{}

func (ReplacementMeta) Name() string { return "replacement" }

func (ReplacementMeta) Induce(in, out string) []Func {
	if in == out || in == "" {
		return nil
	}
	var fs []Func
	// Prefix replacement: split off the longest common suffix.
	cs := commonSuffixLen(in, out)
	y, z := in[:len(in)-cs], out[:len(out)-cs]
	if y != "" {
		fs = append(fs, PrefixReplace{Y: y, Z: z})
	}
	// Suffix replacement: split off the longest common prefix.
	cp := commonPrefixLen(in, out)
	y2, z2 := in[cp:], out[cp:]
	if y2 != "" {
		fs = append(fs, SuffixReplace{Y: y2, Z: z2})
	}
	return verified(in, out, fs)
}

func commonPrefixLen(a, b string) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

func commonSuffixLen(a, b string) int {
	i := 0
	for i < len(a) && i < len(b) && a[len(a)-1-i] == b[len(b)-1-i] {
		i++
	}
	return i
}
