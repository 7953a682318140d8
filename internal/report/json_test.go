package report_test

import (
	"encoding/json"
	"testing"

	"affidavit/internal/delta"
	"affidavit/internal/fixture"
	"affidavit/internal/report"
)

func TestToJSON(t *testing.T) {
	e := fixture.ReferenceExplanation()
	j := report.ToJSON(e, delta.DefaultCosts)
	if len(j.Schema) != 7 || j.Schema[4] != "Val" {
		t.Errorf("schema = %v", j.Schema)
	}
	if j.Cost != fixture.ReferenceCost || j.Alpha != 0.5 {
		t.Errorf("cost/alpha = %v/%v", j.Cost, j.Alpha)
	}
	if len(j.Core) != 13 || len(j.Deleted) != 4 || len(j.Inserted) != 3 {
		t.Errorf("shape: core=%d del=%d ins=%d", len(j.Core), len(j.Deleted), len(j.Inserted))
	}
	kinds := map[string]string{}
	for _, f := range j.Functions {
		kinds[f.Attribute] = f.Kind
	}
	want := map[string]string{
		"ID1": "value-mapping", "ID2": "value-mapping", "Date": "prefix-replace",
		"Type": "identity", "Val": "scaling", "Unit": "constant", "Org": "identity",
	}
	for attr, kind := range want {
		if kinds[attr] != kind {
			t.Errorf("%s kind = %q, want %q", attr, kinds[attr], kind)
		}
	}
	// Value mappings carry their entries.
	for _, f := range j.Functions {
		if f.Kind == "value-mapping" && len(f.Mapping) != 13 {
			t.Errorf("%s mapping entries = %d, want 13", f.Attribute, len(f.Mapping))
		}
		if f.Kind != "value-mapping" && f.Mapping != nil {
			t.Errorf("%s should not carry mapping entries", f.Attribute)
		}
	}
}

func TestToJSONRoundTrip(t *testing.T) {
	e := fixture.ReferenceExplanation()
	raw, err := json.Marshal(report.ToJSON(e, delta.DefaultCosts))
	if err != nil {
		t.Fatal(err)
	}
	var back report.JSONExplanation
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Cost != fixture.ReferenceCost || len(back.Functions) != 7 {
		t.Errorf("round trip lost data: %+v", back)
	}
	// The alignment must survive: F(core.S) = target[core.T] was validated
	// upstream; here indices must stay in range.
	for _, p := range back.Core {
		if p.S < 0 || p.S >= 17 || p.T < 0 || p.T >= 16 {
			t.Errorf("pair out of range: %+v", p)
		}
	}
}
