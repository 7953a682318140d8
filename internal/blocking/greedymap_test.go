package blocking_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"affidavit/internal/align"
	"affidavit/internal/blocking"
	"affidavit/internal/delta"
	"affidavit/internal/metafunc"
	"affidavit/internal/table"
)

// stringGreedyMap is the string-built greedy map the coded align.GreedyMap
// replaced, kept as its oracle: co-occurrences counted in a Go map, the
// argmax over maps, the entries handed to metafunc.NewMapping. ties counts
// the count ties the lexicographic rule had to break.
func stringGreedyMap(inst *delta.Instance, pairs []align.Pair, attr int) (m *metafunc.Mapping, ties int) {
	coded := inst.Coded()
	srcCodes, tgtCodes := coded.Src[attr], coded.Tgt[attr]
	dict := coded.Dicts[attr]
	counts := make(map[int64]int)
	for _, p := range pairs {
		counts[int64(srcCodes[p.S])<<32|int64(tgtCodes[p.T])]++
	}
	bestT := make(map[int32]int32)
	bestN := make(map[int32]int)
	//affidavit:ordered argmax with a total tie-break (count, then lexicographic target value); result is independent of visit order
	for k, n := range counts {
		sv, tv := int32(k>>32), int32(k&0xffffffff)
		cur, seen := bestN[sv]
		if seen && n == cur {
			ties++
		}
		if !seen || n > cur || (n == cur && dict.Value(tv) < dict.Value(bestT[sv])) {
			bestN[sv] = n
			bestT[sv] = tv
		}
	}
	entries := make(map[string]string, len(bestT))
	//affidavit:ordered writes map entries keyed by dict.Value(sv), which is injective over codes; no order-dependent state
	for sv, tv := range bestT {
		entries[dict.Value(sv)] = dict.Value(tv)
	}
	return metafunc.NewMapping(entries), ties
}

// pooledPair draws a random pair over the pool's dictionaries.
func pooledPair(t *testing.T, rng *rand.Rand, schema *table.Schema, pool *table.DictPool) *delta.Instance {
	t.Helper()
	src, tgt := randomTables(rng, schema)
	inst, err := delta.NewInstanceWithDicts(src, tgt, nil, pool.DictsFor(schema))
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// randomAlignment is either a sampled alignment that respects the root
// blocking or arbitrary pairs with repeated records, which crowd few
// values into many equal counts.
func randomAlignment(rng *rand.Rand, inst *delta.Instance) []align.Pair {
	if rng.Intn(2) == 0 {
		return align.Random(blocking.New(inst), rng)
	}
	n, m := inst.Source.Len(), inst.Target.Len()
	if n == 0 || m == 0 {
		return nil
	}
	pairs := make([]align.Pair, rng.Intn(60))
	for i := range pairs {
		pairs[i] = align.Pair{S: int32(rng.Intn(n)), T: int32(rng.Intn(m))}
	}
	return pairs
}

// TestGreedyMapCodedMatchesStrings: the coded greedy map must be the
// string-built one — same Key, Entries, String, Apply, Lookup, Len and
// Params — on pre-seeded pools whose code order is not string order, and
// its code-filled apply memo must equal the string memo, both on its own
// pair and on a later pair over the same pool (a warm start). Two
// goroutines rendering one mapping at once must agree (run under -race).
func TestGreedyMapCodedMatchesStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ties := 0
	for iter := 0; iter < 300; iter++ {
		schema := table.MustSchema("a0", "a1", "a2")
		pool := table.NewDictPool()
		seeded := append([]string{"never", "q"}, alphabet...)
		for _, d := range pool.DictsFor(schema) {
			for _, i := range rng.Perm(len(seeded)) {
				d.Code(seeded[i])
			}
		}
		inst := pooledPair(t, rng, schema, pool)
		later := pooledPair(t, rng, schema, pool)
		for a := 0; a < schema.Len(); a++ {
			name := fmt.Sprintf("iter %d attr %d", iter, a)
			pairs := randomAlignment(rng, inst)
			got := align.GreedyMap(inst, pairs, a)
			want, n := stringGreedyMap(inst, pairs, a)
			ties += n
			checkMapping(t, name, inst.Coded().Dicts[a], got, want)
			for _, co := range []*delta.Coded{inst.Coded(), later.Coded()} {
				if m, s := blocking.BuildMemo(co, a, got), blocking.StringMemo(co, a, got); !slices.Equal(m, s) {
					t.Fatalf("%s: coded memo %v, string memo %v", name, m, s)
				}
			}
			// A mapping over another dictionary takes the string path.
			fresh, err := delta.NewInstance(inst.Source, inst.Target, nil)
			if err != nil {
				t.Fatal(err)
			}
			foreign := align.GreedyMap(fresh, pairs, a)
			if _, _, ok := foreign.Codes(inst.Coded().Dicts[a]); ok {
				t.Fatalf("%s: a mapping over a fresh dictionary claims the pool's codes", name)
			}
			if m, s := blocking.BuildMemo(later.Coded(), a, foreign), blocking.StringMemo(later.Coded(), a, foreign); !slices.Equal(m, s) {
				t.Fatalf("%s: foreign mapping memo %v, string memo %v", name, m, s)
			}
		}
	}
	if ties == 0 {
		t.Fatal("no count tie was broken: the inputs do not exercise the tie-break")
	}
}

// checkMapping compares a fresh coded mapping with the oracle's.
func checkMapping(t *testing.T, name string, dict *table.Dict, got, want *metafunc.Mapping) {
	t.Helper()
	if got.Len() != want.Len() || got.Params() != want.Params() {
		t.Fatalf("%s: Len/Params %d/%d, want %d/%d", name, got.Len(), got.Params(), want.Len(), want.Params())
	}
	keys := make([]string, 2)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range keys {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			keys[i] = got.Key()
		}(i)
	}
	close(start)
	wg.Wait()
	if keys[0] != want.Key() || keys[1] != want.Key() {
		t.Fatalf("%s: concurrent Keys %q, %q, want %q", name, keys[0], keys[1], want.Key())
	}
	if !reflect.DeepEqual(got.Entries(), want.Entries()) {
		t.Fatalf("%s: Entries %v, want %v", name, got.Entries(), want.Entries())
	}
	if got.String() != want.String() {
		t.Fatalf("%s: String %q, want %q", name, got.String(), want.String())
	}
	for _, x := range append(dict.Snapshot(), "absent") {
		if g, w := got.Apply(x), want.Apply(x); g != w {
			t.Fatalf("%s: Apply(%q) = %q, want %q", name, x, g, w)
		}
		gy, gok := got.Lookup(x)
		wy, wok := want.Lookup(x)
		if gy != wy || gok != wok {
			t.Fatalf("%s: Lookup(%q) = %q, %v, want %q, %v", name, x, gy, gok, wy, wok)
		}
	}
}
