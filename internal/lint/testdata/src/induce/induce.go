// Package induce is a nondet fixture shaped like the real coded-path
// induction package.
package induce

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"
)

var pool sync.Pool // want "a pool hands back scratch whose reuse depends on GC timing"

// Flagged: ambient nondeterminism in a coded path.
func bad(m map[string]int) string {
	t := time.Now()                                 // want "wall-clock values are nondeterministic"
	d := time.Since(t)                              // want "wall-clock values are nondeterministic"
	n := rand.Intn(10)                              // want "draws from the process-wide source"
	rand.Shuffle(n, func(i, j int) {})              // want "draws from the process-wide source"
	env := os.Getenv("HOME")                        // want "environment reads make runs machine-dependent"
	return fmt.Sprintf("%v %v %v %v", m, d, n, env) // want "map argument to fmt.Sprintf"
}

// Allowed: explicit seeded sources and value methods.
func good(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	v := rng.Intn(10)
	var zero time.Time
	return fmt.Sprintf("%d %s", v, zero.Format("2006"))
}

// Allowed: justified wall-time measurement (duration-only statistics).
func goodJustified() time.Duration {
	start := time.Now() //affidavit:ignore nondet wall time feeds a duration-only stat, never coded output
	work()
	return time.Since(start) //affidavit:ignore nondet wall time feeds a duration-only stat, never coded output
}

func work() {}
