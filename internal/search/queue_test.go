package search

import (
	"context"
	"testing"
	"testing/quick"

	"affidavit/internal/delta"
	"affidavit/internal/fixture"
	"affidavit/internal/metafunc"
)

func stateAt(t *testing.T, level int, cost float64, key string) *State {
	t.Helper()
	return &State{cost: cost, level: level, key: key}
}

func TestQueueCapacityFormula(t *testing.T) {
	q := newQueue(5)
	// Level i holds max(1, ϱ − i + 1).
	cases := map[int]int{0: 6, 1: 5, 2: 4, 5: 1, 6: 1, 100: 1}
	for level, want := range cases {
		if got := q.capacity(level); got != want {
			t.Errorf("capacity(%d) = %d, want %d", level, got, want)
		}
	}
	if newQueue(0).capacity(0) != 2 {
		t.Error("width floors at 1")
	}
}

func TestQueueEviction(t *testing.T) {
	q := newQueue(1) // level 1 capacity: 1
	a := stateAt(t, 1, 10, "a")
	b := stateAt(t, 1, 5, "b")
	c := stateAt(t, 1, 7, "c")
	if admitted, evicted := q.Add(a); !admitted || evicted {
		t.Fatal("first add must be a fresh admission")
	}
	if admitted, evicted := q.Add(b); !admitted || !evicted {
		t.Fatal("cheaper state must be admitted by evicting the full level's worst")
	}
	// a was evicted; c (cost 7 > b's 5) must be rejected.
	if admitted, evicted := q.Add(c); admitted || evicted {
		t.Error("worse state accepted by full level")
	}
	if got := q.Poll(); got != b {
		t.Errorf("Poll = %v, want b", got)
	}
	if q.Poll() != nil {
		t.Error("queue should be empty")
	}
}

// TestQueueEvictionVsFreshAdmission: evicting admissions must be
// distinguishable from fresh ones, so occupancy accounting (Enqueued −
// Evicted) matches Len.
func TestQueueEvictionVsFreshAdmission(t *testing.T) {
	q := newQueue(1)
	enqueued, evicted := 0, 0
	offer := func(s *State) {
		adm, ev := q.Add(s)
		if adm {
			enqueued++
		}
		if ev {
			evicted++
		}
	}
	offer(stateAt(t, 1, 10, "a")) // fresh
	offer(stateAt(t, 1, 5, "b"))  // evicts a
	offer(stateAt(t, 1, 4, "c"))  // evicts b
	offer(stateAt(t, 2, 9, "d"))  // fresh, level 2
	if enqueued != 4 || evicted != 2 {
		t.Errorf("enqueued/evicted = %d/%d, want 4/2", enqueued, evicted)
	}
	if got := enqueued - evicted; got != q.Len() {
		t.Errorf("occupancy %d ≠ Len %d", got, q.Len())
	}
}

func TestQueueDuplicateElimination(t *testing.T) {
	q := newQueue(3)
	a := stateAt(t, 1, 10, "same")
	b := stateAt(t, 1, 1, "same")
	if admitted, _ := q.Add(a); !admitted {
		t.Fatal("first add rejected")
	}
	if admitted, _ := q.Add(b); admitted {
		t.Error("duplicate key accepted")
	}
	if !q.Seen("same") || q.Seen("other") {
		t.Error("Seen bookkeeping wrong")
	}
}

func TestQueuePollOrdering(t *testing.T) {
	q := newQueue(5)
	q.Add(stateAt(t, 1, 3, "x"))
	q.Add(stateAt(t, 2, 3, "y")) // same cost, deeper level: polled first
	q.Add(stateAt(t, 3, 1, "z")) // cheapest overall: polled before both
	order := []string{"z", "y", "x"}
	for _, want := range order {
		got := q.Poll()
		if got == nil || got.key != want {
			t.Fatalf("poll order wrong: got %v, want %s", got, want)
		}
	}
}

func TestQueuePollTieBreakByKey(t *testing.T) {
	q := newQueue(5)
	q.Add(stateAt(t, 1, 3, "bbb"))
	q.Add(stateAt(t, 1, 3, "aaa"))
	if got := q.Poll(); got.key != "aaa" {
		t.Errorf("tie should break by key, got %q", got.key)
	}
}

func TestQueueLen(t *testing.T) {
	q := newQueue(2)
	if q.Len() != 0 {
		t.Error("new queue not empty")
	}
	q.Add(stateAt(t, 1, 1, "a"))
	q.Add(stateAt(t, 2, 2, "b"))
	if q.Len() != 2 {
		t.Errorf("Len = %d, want 2", q.Len())
	}
	q.Poll()
	if q.Len() != 1 {
		t.Errorf("Len after poll = %d, want 1", q.Len())
	}
}

// Property: polling drains states in nondecreasing cost order whenever all
// states sit on one level (the bounded queue is a plain priority queue
// within a level).
func TestQuickQueueMonotonePoll(t *testing.T) {
	f := func(costs []uint8) bool {
		q := newQueue(200)
		for i, c := range costs {
			q.Add(stateAt(t, 1, float64(c), "k"+itoa(i)))
		}
		prev := -1.0
		for {
			s := q.Poll()
			if s == nil {
				return true
			}
			if s.cost < prev {
				return false
			}
			prev = s.cost
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStateDescribe(t *testing.T) {
	inst := fixture.Instance()
	cm := delta.DefaultCosts
	root := newRoot(context.Background(), inst, cm)
	s := root.extend(fixture.Type, metafunc.Identity{}, cm).
		extend(fixture.Unit, metafunc.Constant{C: "k $"}, cm)
	want := `(∗, ∗, ∗, id, ∗, x ↦ "k $", ∗)`
	if got := s.Describe(); got != want {
		t.Errorf("Describe = %s, want %s", got, want)
	}
	if s.Level() != 2 || s.IsEnd() {
		t.Error("level bookkeeping wrong")
	}
	if len(s.Funcs()) != 7 {
		t.Error("Funcs width wrong")
	}
}

// TestEndStateCostCoherence: refining with the full reference tuple must
// give a state cost equal to the explanation cost (Section 4.5's coherence
// requirement between Definition 4.6 and Definition 3.10).
func TestEndStateCostCoherence(t *testing.T) {
	inst := fixture.Instance()
	cm := delta.DefaultCosts
	s := newRoot(context.Background(), inst, cm)
	for a, f := range fixture.ReferenceFuncs() {
		s = s.extend(a, f, cm)
	}
	if !s.IsEnd() {
		t.Fatal("state should be an end state")
	}
	if s.Cost() != fixture.ReferenceCost {
		t.Errorf("end-state cost = %v, want %d", s.Cost(), fixture.ReferenceCost)
	}
}

// TestStateCostMonotone: deciding an attribute never lowers the cost bound.
func TestStateCostMonotone(t *testing.T) {
	inst := fixture.Instance()
	cm := delta.DefaultCosts
	root := newRoot(context.Background(), inst, cm)
	ref := fixture.ReferenceFuncs()
	s := root
	for a, f := range ref {
		next := s.extend(a, f, cm)
		if next.Cost() < s.Cost() {
			t.Errorf("cost dropped from %v to %v at attribute %d",
				s.Cost(), next.Cost(), a)
		}
		s = next
	}
}
