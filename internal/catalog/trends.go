package catalog

import "slices"

// TrendAttribute aggregates one attribute's churn across the explained
// chain: in how many steps it changed, how many core records it touched
// in total, and which function kinds rewrote it (first-seen order).
type TrendAttribute struct {
	Attribute    string   `json:"attribute"`
	ChangedSteps int      `json:"changed_steps"`
	Updated      int      `json:"updated"`
	Kinds        []string `json:"kinds"`
}

// TrendStep is one step of the per-step trend series: its operation mix
// and compression. Failed and in-flight steps appear with zeroed metrics
// so the series stays aligned with the snapshot chain.
type TrendStep struct {
	SnapshotID   string  `json:"snapshot_id"`
	Op           string  `json:"op,omitempty"`
	Status       string  `json:"status"`
	Updates      int     `json:"updates"`
	Inserts      int     `json:"inserts"`
	Deletes      int     `json:"deletes"`
	Compression  float64 `json:"compression"`
	SchemaChange bool    `json:"schema_change,omitempty"`
}

// TrendOps is the chain-total operation mix over explained steps.
type TrendOps struct {
	Updates int `json:"updates"`
	Inserts int `json:"inserts"`
	Deletes int `json:"deletes"`
}

// TrendCompression is the compression-ratio trajectory over explained
// steps; First/Last/Min/Max are 0 while no step has been explained.
type TrendCompression struct {
	First      float64   `json:"first"`
	Last       float64   `json:"last"`
	Min        float64   `json:"min"`
	Max        float64   `json:"max"`
	Trajectory []float64 `json:"trajectory"`
}

// Trends is GET /tables/{name}/trends: drift analytics computed on demand
// from the journaled step summaries. Only explained steps contribute to
// the attribute, ops and compression aggregates; the per-step series
// carries every step so gaps (failed, pending) stay visible.
type Trends struct {
	Table          string           `json:"table"`
	Snapshots      int              `json:"snapshots"`
	StepsExplained int              `json:"steps_explained"`
	StepsFailed    int              `json:"steps_failed"`
	StepsPending   int              `json:"steps_pending"`
	Attributes     []TrendAttribute `json:"attributes"`
	Steps          []TrendStep      `json:"steps"`
	Ops            TrendOps         `json:"ops"`
	Compression    TrendCompression `json:"compression"`
}

// ComputeTrends folds a table's stored chain (as Store.History returns it)
// into trend analytics, each step under the status ServedStatus gives it.
// All slices are non-nil (an empty history encodes as [] not null) and all
// orderings derive from the journal's push order, so the encoding is
// byte-stable.
func ComputeTrends(reg Record, snaps, steps []Record, job JobLookup) Trends {
	t := Trends{
		Table:      reg.Table,
		Snapshots:  len(snaps),
		Attributes: []TrendAttribute{},
		Steps:      []TrendStep{},
		Compression: TrendCompression{
			Trajectory: []float64{},
		},
	}
	// Attribute rows appear in first-seen order across the explained
	// steps; the index map is only a lookup aid, never ranged over.
	attrIndex := make(map[string]int)
	schemaByID := make(map[string]*Record)
	for i := range snaps {
		schemaByID[snaps[i].SnapshotID] = &snaps[i]
	}
	var counts stepCounts
	for _, step := range steps {
		status, _ := ServedStatus(step, job)
		counts.add(status)
		row := TrendStep{SnapshotID: step.SnapshotID, Status: status}
		if snap, ok := schemaByID[step.SnapshotID]; ok {
			row.Op = snap.Op
			if parent, ok := schemaByID[step.ParentID]; ok && !slices.Equal(snap.Schema, parent.Schema) {
				row.SchemaChange = true
			}
		}
		if sum := step.Summary; step.Status == StepExplained && sum != nil {
			row.Updates, row.Inserts, row.Deletes = sum.Updates, sum.Inserts, sum.Deletes
			row.Compression = sum.Compression
			t.Ops.Updates += sum.Updates
			t.Ops.Inserts += sum.Inserts
			t.Ops.Deletes += sum.Deletes
			t.Compression.Trajectory = append(t.Compression.Trajectory, sum.Compression)
			for _, f := range sum.Functions {
				idx, seen := attrIndex[f.Attribute]
				if !seen {
					idx = len(t.Attributes)
					attrIndex[f.Attribute] = idx
					t.Attributes = append(t.Attributes, TrendAttribute{Attribute: f.Attribute, Kinds: []string{}})
				}
				ta := &t.Attributes[idx]
				ta.ChangedSteps++
				ta.Updated += f.Updated
				if !slices.Contains(ta.Kinds, f.Kind) {
					ta.Kinds = append(ta.Kinds, f.Kind)
				}
			}
		}
		t.Steps = append(t.Steps, row)
	}
	t.StepsExplained, t.StepsFailed, t.StepsPending = counts.explained, counts.failed, counts.pending
	if n := len(t.Compression.Trajectory); n > 0 {
		traj := t.Compression.Trajectory
		t.Compression.First, t.Compression.Last = traj[0], traj[n-1]
		t.Compression.Min, t.Compression.Max = slices.Min(traj), slices.Max(traj)
	}
	return t
}
