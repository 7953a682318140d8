package metafunc

// Negation is the boolean negation of the NP-hardness reduction (Theorem
// 3.12): it swaps the truth values "0" and "1" and otherwise behaves like
// the identity. ψ = 0, so explanations over {id, negation} are costed purely
// by |T^{E+}| — the property the reduction relies on.
type Negation struct{}

func (Negation) Apply(x string) string {
	switch x {
	case "0":
		return "1"
	case "1":
		return "0"
	}
	return x
}

func (Negation) Params() int                 { return 0 }
func (Negation) Key() string                 { return "neg" }
func (Negation) AppendKey(dst []byte) []byte { return append(dst, "neg"...) }
func (Negation) String() string              { return "x ↦ ¬x on {0,1}, otherwise x ↦ x" }

// NegationMeta induces Negation from flipped-bit examples.
type NegationMeta struct{}

func (NegationMeta) Name() string { return "negation" }

func (NegationMeta) Induce(in, out string) []Func {
	if (in == "0" && out == "1") || (in == "1" && out == "0") {
		return []Func{Negation{}}
	}
	return nil
}
