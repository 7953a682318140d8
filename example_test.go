package affidavit_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"affidavit"
)

// reverseFunc is a custom transformation: x ↦ reverse(x), ψ = 0.
type reverseFunc struct{}

func (reverseFunc) Apply(x string) string {
	b := []byte(x)
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
	return string(b)
}
func (reverseFunc) Params() int    { return 0 }
func (reverseFunc) Key() string    { return "x-reverse" }
func (reverseFunc) String() string { return "x ↦ reverse(x)" }

// reverseMeta induces reverseFunc from examples showing a reversal.
type reverseMeta struct{}

func (reverseMeta) Name() string { return "reverse" }

func (reverseMeta) Induce(in, out string) []affidavit.Func {
	if in == out {
		return nil
	}
	if (reverseFunc{}).Apply(in) == out {
		return []affidavit.Func{reverseFunc{}}
	}
	return nil
}

// The paper's extension point ("administrators … customize Affidavit by
// adding further meta functions via implementation of a small …
// interface"): the built-in library explains a column transformed by
// string reversal only at a price, but with the custom meta the search
// learns the ψ = 0 reversal and explains every record at cost 0.
func ExampleWithExtraMetas() {
	schema, err := affidavit.NewSchema("code", "group")
	if err != nil {
		panic(err)
	}
	var srcRows, tgtRows []affidavit.Record
	codes := []string{"alpha", "bravo", "charlie", "delta", "echo1",
		"fox", "golf", "hotel", "india", "julia", "kilo1", "lima2"}
	groups := []string{"g1", "g2", "g3"}
	for i, c := range codes {
		srcRows = append(srcRows, affidavit.Record{c, groups[i%3]})
		tgtRows = append(tgtRows, affidavit.Record{(reverseFunc{}).Apply(c), groups[i%3]})
	}
	src, err := affidavit.NewTable(schema, srcRows)
	if err != nil {
		panic(err)
	}
	tgt, err := affidavit.NewTable(schema, tgtRows)
	if err != nil {
		panic(err)
	}
	for _, opts := range [][]affidavit.Option{
		{affidavit.WithSeed(4)},
		{affidavit.WithSeed(4), affidavit.WithExtraMetas(reverseMeta{})},
	} {
		ex, err := affidavit.New(opts...)
		if err != nil {
			panic(err)
		}
		res, err := ex.Explain(context.Background(), src, tgt)
		if err != nil {
			panic(err)
		}
		fmt.Printf("cost %g, code: %v\n", res.Cost, res.Explanation.Funcs[0])
	}
	// Output:
	// cost 23, code: x◦.{3} ↦ x◦"xof"
	// cost 0, code: x ↦ reverse(x)
}

// JSONResult is the reference encoding: Result.JSON writes exactly its
// json.MarshalIndent bytes, without building it.
func ExampleResult_JSONResult() {
	schema, err := affidavit.NewSchema("id", "city")
	if err != nil {
		panic(err)
	}
	src, err := affidavit.NewTable(schema, []affidavit.Record{
		{"1", "berlin"}, {"2", "mannheim"}, {"3", "hamburg"}, {"4", "bonn"},
	})
	if err != nil {
		panic(err)
	}
	tgt, err := affidavit.NewTable(schema, []affidavit.Record{
		{"1", "BERLIN"}, {"2", "MANNHEIM"}, {"3", "HAMBURG"}, {"5", "KIEL"},
	})
	if err != nil {
		panic(err)
	}
	ex, err := affidavit.New(affidavit.WithSeed(1))
	if err != nil {
		panic(err)
	}
	res, err := ex.Explain(context.Background(), src, tgt)
	if err != nil {
		panic(err)
	}
	ref, err := json.MarshalIndent(res.JSONResult(""), "", "  ")
	if err != nil {
		panic(err)
	}
	fmt.Println(string(ref))
	doc, err := res.JSON("")
	if err != nil {
		panic(err)
	}
	fmt.Println("Result.JSON matches:", bytes.Equal(doc, ref))
	// Output:
	// {
	//   "explanation": {
	//     "schema": [
	//       "id",
	//       "city"
	//     ],
	//     "functions": [
	//       {
	//         "attribute": "id",
	//         "kind": "identity",
	//         "display": "x ↦ x",
	//         "psi": 0
	//       },
	//       {
	//         "attribute": "city",
	//         "kind": "uppercase",
	//         "display": "x ↦ Uppercase(x)",
	//         "psi": 0
	//       }
	//     ],
	//     "core": [
	//       {
	//         "s": 0,
	//         "t": 0
	//       },
	//       {
	//         "s": 1,
	//         "t": 1
	//       },
	//       {
	//         "s": 2,
	//         "t": 2
	//       }
	//     ],
	//     "deleted": [
	//       3
	//     ],
	//     "inserted": [
	//       3
	//     ],
	//     "cost": 2,
	//     "alpha": 0.5
	//   },
	//   "cost": 2,
	//   "trivial_cost": 8,
	//   "compression": 0.25,
	//   "stats": {
	//     "polls": 2,
	//     "states_generated": 2,
	//     "enqueued": 4,
	//     "evicted": 0,
	//     "start_level": 1
	//   }
	// }
	// Result.JSON matches: true
}
