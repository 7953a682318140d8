package report

import (
	"affidavit/internal/delta"
	"affidavit/internal/metafunc"
)

// JSONExplanation is the machine-readable form of an explanation, stable
// enough for downstream tooling: per-attribute function descriptors, the
// core alignment as index pairs, and the deleted/inserted record indices.
type JSONExplanation struct {
	Schema    []string       `json:"schema"`
	Functions []JSONFunction `json:"functions"`
	Core      []JSONPair     `json:"core"`
	Deleted   []int          `json:"deleted"`
	Inserted  []int          `json:"inserted"`
	Cost      float64        `json:"cost"`
	Alpha     float64        `json:"alpha"`
}

// JSONFunction describes one attribute function.
type JSONFunction struct {
	Attribute string `json:"attribute"`
	Kind      string `json:"kind"`
	Display   string `json:"display"`
	Psi       int    `json:"psi"`
	// Mapping carries the explicit entries for value mappings.
	Mapping [][2]string `json:"mapping,omitempty"`
}

// JSONPair aligns source record index S with target record index T.
type JSONPair struct {
	S int `json:"s"`
	T int `json:"t"`
}

// ToJSON converts an explanation for serialisation.
func ToJSON(e *delta.Explanation, cm delta.CostModel) JSONExplanation {
	out := JSONExplanation{
		Schema:    e.Inst.Schema().Attrs(),
		Functions: Functions(e),
		Deleted:   append([]int{}, e.Deleted...),
		Inserted:  append([]int{}, e.Inserted...),
		Cost:      cm.Cost(e),
		Alpha:     cm.Alpha,
	}
	for i := range e.CoreSrc {
		out.Core = append(out.Core, JSONPair{S: e.CoreSrc[i], T: e.CoreTgt[i]})
	}
	return out
}

// Functions describes the explanation's attribute functions, one per
// attribute in schema order.
func Functions(e *delta.Explanation) []JSONFunction {
	var out []JSONFunction
	for a, f := range e.Funcs {
		jf := JSONFunction{
			Attribute: e.Inst.Schema().Attr(a),
			Kind:      kindOf(f),
			Display:   f.String(),
			Psi:       f.Params(),
		}
		if m, ok := f.(*metafunc.Mapping); ok {
			jf.Mapping = m.Entries()
		}
		out = append(out, jf)
	}
	return out
}

func kindOf(f metafunc.Func) string {
	switch f.(type) {
	case metafunc.Identity:
		return "identity"
	case metafunc.Upper:
		return "uppercase"
	case metafunc.Lower:
		return "lowercase"
	case metafunc.Constant:
		return "constant"
	case metafunc.Add:
		return "addition"
	case metafunc.Scale:
		return "scaling"
	case metafunc.FrontMask:
		return "front-mask"
	case metafunc.BackMask:
		return "back-mask"
	case metafunc.FrontTrim:
		return "front-trim"
	case metafunc.BackTrim:
		return "back-trim"
	case metafunc.Prefix:
		return "prefix"
	case metafunc.Suffix:
		return "suffix"
	case metafunc.PrefixReplace:
		return "prefix-replace"
	case metafunc.SuffixReplace:
		return "suffix-replace"
	case metafunc.DateConvert:
		return "date-convert"
	case *metafunc.Mapping:
		return "value-mapping"
	case metafunc.Negation:
		return "negation"
	}
	return "custom"
}
