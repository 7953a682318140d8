package gen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"affidavit/internal/datasets"
	"affidavit/internal/table"
)

func chainTable(t *testing.T, name string) *table.Table {
	t.Helper()
	ds, err := datasets.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := ds.Build(11)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestMakeChainShape(t *testing.T) {
	tab := chainTable(t, "bridges")
	ch, err := MakeChain(tab, ChainConfig{Steps: 3, Eta: 0.2, Tau: 0.5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.Snapshots) != 4 {
		t.Fatalf("got %d snapshots, want 4", len(ch.Snapshots))
	}
	n := ch.Snapshots[0].Len()
	if n < 2 {
		t.Fatalf("snapshot size %d too small", n)
	}
	for i, s := range ch.Snapshots {
		if s.Len() != n {
			t.Errorf("snapshot %d has %d records, want %d", i, s.Len(), n)
		}
		if s.Schema().Index("rid") != ch.KeyAttr {
			t.Errorf("snapshot %d: key attribute not at %d", i, ch.KeyAttr)
		}
	}
	if len(ch.Funcs) != ch.Snapshots[0].Schema().Len() {
		t.Errorf("funcs tuple has %d entries, schema has %d",
			len(ch.Funcs), ch.Snapshots[0].Schema().Len())
	}
}

func TestMakeChainDeterministic(t *testing.T) {
	tab := chainTable(t, "iris")
	cfg := ChainConfig{Steps: 2, Eta: 0.1, Tau: 0.5, Seed: 3}
	a, err := MakeChain(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MakeChain(tab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Snapshots {
		sa, sb := a.Snapshots[i], b.Snapshots[i]
		if sa.Len() != sb.Len() {
			t.Fatalf("snapshot %d sizes differ", i)
		}
		for r := 0; r < sa.Len(); r++ {
			if !sa.Record(r).Equal(sb.Record(r)) {
				t.Fatalf("snapshot %d record %d differs: %v vs %v",
					i, r, sa.Record(r), sb.Record(r))
			}
		}
	}
}

// TestMakeChainStableKeys: by default each record's key survives every
// transition, so the multiset of keys shrinks only by the η-deletions.
func TestMakeChainStableKeys(t *testing.T) {
	tab := chainTable(t, "balance")
	ch, err := MakeChain(tab, ChainConfig{Steps: 2, Eta: 0.2, Tau: 0.3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	keys := func(s *table.Table) map[string]bool {
		m := make(map[string]bool)
		for i := 0; i < s.Len(); i++ {
			m[s.Value(i, ch.KeyAttr)] = true
		}
		return m
	}
	prev := keys(ch.Snapshots[0])
	for i := 1; i < len(ch.Snapshots); i++ {
		cur := keys(ch.Snapshots[i])
		shared := 0
		for k := range cur {
			if prev[k] {
				shared++
			}
		}
		if shared == 0 {
			t.Errorf("step %d: no keys survived, want stable keys", i)
		}
		prev = cur
	}
}

// TestMakeChainPermutedKeys: with PermuteKeys every snapshot re-keys, so
// key sets are permutations of 0..n-1 every time.
func TestMakeChainPermutedKeys(t *testing.T) {
	tab := chainTable(t, "balance")
	ch, err := MakeChain(tab, ChainConfig{Steps: 2, Eta: 0.1, Tau: 0.3, Seed: 5, PermuteKeys: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range ch.Snapshots {
		seen := make(map[string]bool)
		for r := 0; r < s.Len(); r++ {
			k := s.Value(r, ch.KeyAttr)
			if seen[k] {
				t.Fatalf("snapshot %d: duplicate key %q", i, k)
			}
			seen[k] = true
		}
	}
}

// TestMakeChainSustainedFuncs: applying the chain's function tuple to a
// surviving record of snapshot i reproduces its snapshot-i+1 values (keys
// identify records under the default stable-keys regime).
func TestMakeChainSustainedFuncs(t *testing.T) {
	tab := chainTable(t, "bridges")
	ch, err := MakeChain(tab, ChainConfig{Steps: 3, Eta: 0.2, Tau: 0.7, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(ch.Snapshots); i++ {
		src, tgt := ch.Snapshots[i], ch.Snapshots[i+1]
		byKey := make(map[string]int)
		for r := 0; r < tgt.Len(); r++ {
			byKey[tgt.Value(r, ch.KeyAttr)] = r
		}
		checked := 0
		for r := 0; r < src.Len(); r++ {
			tr, ok := byKey[src.Value(r, ch.KeyAttr)]
			if !ok {
				continue // deleted on this transition
			}
			img := ch.Funcs.Apply(src.Record(r))
			if !img.Equal(tgt.Record(tr)) {
				t.Fatalf("step %d: F(src %d) = %v ≠ tgt %d = %v",
					i, r, img, tr, tgt.Record(tr))
			}
			checked++
		}
		if checked == 0 {
			t.Fatalf("step %d: no surviving records checked", i)
		}
	}
}

// TestMakeChainDigest pins MakeChain's output bytes: the SHA-256 over every
// snapshot's CSV of a flight-500k chain, recorded on the code before the
// generator stopped going through rows. There is no -update on purpose:
// those chains are the service benchmark's inputs, so a generator change
// that moves their CSV bytes fails here.
func TestMakeChainDigest(t *testing.T) {
	ds, err := datasets.Get("flight-500k")
	if err != nil {
		t.Fatal(err)
	}
	tab, err := ds.BuildRows(2000, 11)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"seed3/permute=false": "3672a035fc487892aef9c190a3ff3793d39d9a64543129bbba736177212fa610",
		"seed3/permute=true":  "7795b3e471ce9b5147b372a66b3b4e41df1eed13eacee8fc55349f1c473d2413",
		"seed4/permute=false": "b160d40aebb248218c17985f9e2519348f44f9e1e5da02481e027d5096760ddd",
		"seed4/permute=true":  "a50258c7c2b26df368a20933ac00c778d0405da637a787e2261b9316f2868b98",
		"seed5/permute=false": "5dfd67ad11f845c7f5c25ebe6a15b0cb86801f0cb9aec46cda5acac767b8d432",
		"seed5/permute=true":  "e605f75343eed5030c4cb771031bb9378577599f041b5aed591f951dc05f632f",
		"seed6/permute=false": "400c42394274c409425d8c4e0be40e221a231f7df9655c2a9d9ccf0b50ee10bc",
		"seed6/permute=true":  "2ad281efbc6a8f2aaf90125a1a1214cc90f4dc54655eff3267dafddd51278efc",
	}
	for seed := int64(3); seed <= 6; seed++ {
		for _, permute := range []bool{false, true} {
			ch, err := MakeChain(tab, ChainConfig{Steps: 8, Eta: 0.1, Tau: 0.5, Seed: seed, PermuteKeys: permute})
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, s := range ch.Snapshots {
				if err := s.WriteCSV(h); err != nil {
					t.Fatal(err)
				}
			}
			key := fmt.Sprintf("seed%d/permute=%v", seed, permute)
			if got := hex.EncodeToString(h.Sum(nil)); got != want[key] {
				t.Errorf("%s: digest %s, want %s", key, got, want[key])
			}
		}
	}
}
