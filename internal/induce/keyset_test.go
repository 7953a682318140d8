package induce

import (
	"fmt"
	"testing"
)

// TestKeySet: membership is decided on the key bytes, so two keys sharing a
// hash are both kept, through growth and across a reset.
func TestKeySet(t *testing.T) {
	var s keySet
	for round := 0; round < 2; round++ {
		s.reset()
		for i := 0; i < 500; i++ {
			key := []byte(fmt.Sprintf("const:%d", i))
			h := uint64(i % 7) // seven hashes for 500 keys: every probe collides
			if !s.add(h, key) {
				t.Fatalf("round %d: new key %q reported as seen", round, key)
			}
			key[0] = 'X' // the set must not alias the caller's buffer
		}
		for i := 0; i < 500; i++ {
			if s.add(uint64(i%7), []byte(fmt.Sprintf("const:%d", i))) {
				t.Fatalf("round %d: key %d reported as new twice", round, i)
			}
		}
		if s.add(3, []byte("const:3")) || !s.add(4, []byte("const:3x")) {
			t.Fatalf("round %d: lookups after the fill disagree", round)
		}
	}
}
