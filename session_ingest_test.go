package affidavit

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestDictReadersDuringIngest: a session's pool dictionaries stay readable
// while Session.ReadSource interns into them batch by batch — another
// goroutine's Lookup, Value and Snapshot see every code consistently — and
// the ingested tables hold exactly their records. Run it under -race.
func TestDictReadersDuringIngest(t *testing.T) {
	ex, err := New()
	if err != nil {
		t.Fatal(err)
	}
	s := ex.Session(nil)
	csvOf := func(from, n int) string {
		var sb strings.Builder
		sb.WriteString("k,v\n")
		for i := from; i < from+n; i++ {
			fmt.Fprintf(&sb, "k%d,v%d\n", i, i%37)
		}
		return sb.String()
	}
	ctx := context.Background()
	first, err := s.ReadSource(ctx, NewCSVSource(strings.NewReader(csvOf(0, 10))), "source")
	if err != nil {
		t.Fatal(err)
	}
	dicts := s.pool.DictsFor(first.Schema())

	// The reader signals after its first full pass over the dictionaries,
	// and the ingest rounds start only then, so the reader is running
	// however the goroutines are scheduled.
	done, firstPass := make(chan struct{}), make(chan struct{})
	var signal sync.Once
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer signal.Do(func() { close(firstPass) })
		for {
			select {
			case <-done:
				return
			default:
			}
			for a, d := range dicts {
				view := d.Snapshot()
				for c := len(view) - 1; c >= 0 && c >= len(view)-50; c-- {
					if v := d.Value(int32(c)); v != view[c] {
						t.Errorf("attr %d: Value(%d) = %q, snapshot %q", a, c, v, view[c])
						return
					}
					if got, ok := d.Lookup(view[c]); !ok || got != int32(c) {
						t.Errorf("attr %d: Lookup(%q) = %d, %v, want %d", a, view[c], got, ok, c)
						return
					}
				}
			}
			signal.Do(func() { close(firstPass) })
		}
	}()
	<-firstPass
	for round := 0; round < 4; round++ {
		from, n := 1000*round, 3000
		tab, err := s.ReadSource(ctx, NewCSVSource(strings.NewReader(csvOf(from, n))), "target")
		if err != nil {
			t.Fatal(err)
		}
		if tab.Len() != n {
			t.Fatalf("round %d: %d records, want %d", round, tab.Len(), n)
		}
		for i := 0; i < n; i += 97 {
			if got, want := tab.Value(i, 0), fmt.Sprintf("k%d", from+i); got != want {
				t.Fatalf("round %d: record %d key %q, want %q", round, i, got, want)
			}
		}
	}
	close(done)
	wg.Wait()
}
