// Package spill is the out-of-core substrate of the explain pipeline: a
// process-wide memory budget (Manager), per-run spill accounting (Stats)
// and a fixed-record partition pager (Pager) backing the disk-partitioned
// modes of align's overlap index and delta's matching.
//
// The budget is a soft, advisory bound on the *auxiliary* memory of one
// explanation — the overlap index and the matching's index — not a hard
// process limit: snapshots (interned code columns, 4 bytes per cell) and
// the search's blocking results stay resident. Consumers estimate the
// in-memory cost of an operation up front and partition it through disk
// when the estimate exceeds their share of the budget; results are
// byte-identical either way, only the memory/IO profile differs.
//
// Spill files are created under the manager's directory (os.TempDir by
// default) and unlinked immediately after creation, so they never outlive
// the process even on a crash.
package spill

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
)

// Shares split the budget across the pipeline's two memory consumers.
// They are deliberately coarse: the point is that no single subsystem can
// claim the whole budget, not a precise accounting.
const (
	// groupShareDiv: the overlap index's group tables may be estimated at
	// budget/4 bytes before it groups through disk partitions.
	groupShareDiv = 4
	// matchShareDiv: the end-state conversion's index may be estimated at
	// budget/4 bytes before the matching partitions to disk.
	matchShareDiv = 4
)

// maxPartitions caps how finely one external operation partitions; beyond
// this, per-partition buffers dominate and seek locality degrades.
const maxPartitions = 64

// Manager carries one memory budget. The zero budget (or a nil manager)
// disables spilling entirely: every Should* probe answers false and no file
// is ever created. Managers are immutable, safe for concurrent use and
// typically live as long as their Explainer.
type Manager struct {
	budget int64
	dir    string
}

// NewManager returns a manager enforcing the given budget in bytes under
// dir ("" = os.TempDir()). budget ≤ 0 returns a manager that never spills.
func NewManager(budget int64, dir string) *Manager {
	return &Manager{budget: budget, dir: dir}
}

// Active reports whether the manager enforces a budget.
func (m *Manager) Active() bool { return m != nil && m.budget > 0 }

// Budget returns the configured budget in bytes (0 = unlimited).
func (m *Manager) Budget() int64 {
	if m == nil {
		return 0
	}
	return m.budget
}

// ShouldSpillGroup reports whether a grouping pass whose in-memory tables
// are estimated at est bytes should group externally.
func (m *Manager) ShouldSpillGroup(est int64) bool {
	return m.Active() && est > m.budget/groupShareDiv
}

// ShouldSpillMatch reports whether a multiset matching whose index is
// estimated at est bytes should partition to disk.
func (m *Manager) ShouldSpillMatch(est int64) bool {
	return m.Active() && est > m.budget/matchShareDiv
}

// Partitions sizes an external operation: enough partitions that one
// partition's in-memory table fits the share, clamped to [2, 64].
func (m *Manager) Partitions(est int64, shareDiv int64) int {
	share := m.budget / shareDiv
	if share < 1 {
		share = 1
	}
	p := int((est + share - 1) / share)
	if p < 2 {
		p = 2
	}
	if p > maxPartitions {
		p = maxPartitions
	}
	return p
}

// GroupPartitions sizes an external grouping pass.
func (m *Manager) GroupPartitions(est int64) int { return m.Partitions(est, groupShareDiv) }

// MatchPartitions sizes a disk-partitioned matching: one partition's index
// fits the share (until the 64-partition cap), so a caller that honours
// the budget holds one partition at a time.
func (m *Manager) MatchPartitions(est int64) int { return m.Partitions(est, matchShareDiv) }

// tempFile creates an anonymous spill file: created under the manager's
// directory and unlinked immediately, so it is reclaimed by the OS when
// closed (or at process exit) no matter how the process ends.
func (m *Manager) tempFile(pattern string) (*os.File, error) {
	dir := m.dir
	if dir == "" {
		dir = os.TempDir()
	}
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	// Unlink while open: POSIX keeps the inode alive for the open
	// descriptor and reclaims it automatically on close/exit.
	os.Remove(f.Name())
	return f, nil
}

// Stats counts one scope's spill activity (a run's overlap index, its
// conversion) with atomic counters, so concurrent probes report into one
// place. The nil *Stats discards.
type Stats struct {
	bytes atomic.Int64
	parts atomic.Int64
}

// Note records written bytes and external partitions.
func (s *Stats) Note(bytes int64, partitions int) {
	if s == nil {
		return
	}
	s.bytes.Add(bytes)
	s.parts.Add(int64(partitions))
}

// Bytes returns the total bytes spilled in this scope.
func (s *Stats) Bytes() int64 {
	if s == nil {
		return 0
	}
	return s.bytes.Load()
}

// Partitions returns the external partitions created in this scope.
func (s *Stats) Partitions() int64 {
	if s == nil {
		return 0
	}
	return s.parts.Load()
}

// ParseSize parses a human-readable byte size: a plain integer (bytes) or
// an integer with one of the suffixes KB/MB/GB (decimal) or KiB/MiB/GiB
// (binary), case-insensitive, e.g. "256MiB", "1gb", "65536". The empty
// string and "0" parse to 0 (no budget).
func ParseSize(s string) (int64, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, nil
	}
	mult := int64(1)
	lower := strings.ToLower(t)
	for _, u := range []struct {
		suffix string
		mult   int64
	}{
		{"kib", 1 << 10}, {"mib", 1 << 20}, {"gib", 1 << 30},
		{"kb", 1000}, {"mb", 1000 * 1000}, {"gb", 1000 * 1000 * 1000},
		{"b", 1},
	} {
		if strings.HasSuffix(lower, u.suffix) {
			mult = u.mult
			t = strings.TrimSpace(t[:len(t)-len(u.suffix)])
			break
		}
	}
	n, err := strconv.ParseInt(t, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("spill: bad size %q (want e.g. 256MiB, 64KB, 1073741824)", s)
	}
	if n < 0 {
		return 0, fmt.Errorf("spill: size must be ≥ 0, got %q", s)
	}
	if mult > 1 && n > (1<<62)/mult {
		return 0, fmt.Errorf("spill: size %q overflows", s)
	}
	return n * mult, nil
}

// FormatSize renders a byte count in the binary unit ParseSize accepts.
func FormatSize(n int64) string {
	switch {
	case n >= 1<<30 && n%(1<<30) == 0:
		return fmt.Sprintf("%dGiB", n>>30)
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKiB", n>>10)
	}
	return strconv.FormatInt(n, 10)
}
