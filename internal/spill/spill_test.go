package spill

import (
	"encoding/binary"
	"fmt"
	"testing"
)

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		err  bool
	}{
		{"", 0, false},
		{"0", 0, false},
		{"1024", 1024, false},
		{"64KiB", 64 << 10, false},
		{"256MiB", 256 << 20, false},
		{"1GiB", 1 << 30, false},
		{"1kb", 1000, false},
		{"2MB", 2_000_000, false},
		{"3gb", 3_000_000_000, false},
		{" 16 MiB ", 16 << 20, false},
		{"12B", 12, false},
		{"-1", 0, true},
		{"cat", 0, true},
		{"12TiB", 0, true},
	}
	for _, c := range cases {
		got, err := ParseSize(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseSize(%q): err = %v, want err %v", c.in, err, c.err)
			continue
		}
		if !c.err && got != c.want {
			t.Errorf("ParseSize(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestFormatSizeRoundTrips(t *testing.T) {
	for _, n := range []int64{0, 17, 1 << 10, 64 << 10, 256 << 20, 1 << 30, 4097} {
		got, err := ParseSize(FormatSize(n))
		if err != nil || got != n {
			t.Errorf("ParseSize(FormatSize(%d)) = %d, %v", n, got, err)
		}
	}
}

func TestPagerRoundTrips(t *testing.T) {
	m := NewManager(1, t.TempDir())
	st := &Stats{}
	const parts, recs = 5, 50000
	p, err := m.NewPager(parts, 8, st)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	rec := make([]byte, 8)
	for i := 0; i < recs; i++ {
		binary.LittleEndian.PutUint32(rec, uint32(i))
		binary.LittleEndian.PutUint32(rec[4:], uint32(i*7))
		if err := p.Write(i%parts, rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if st.Partitions() != parts {
		t.Fatalf("partitions = %d, want %d", st.Partitions(), parts)
	}
	if st.Bytes() != int64(recs*8) {
		t.Fatalf("bytes = %d, want %d", st.Bytes(), recs*8)
	}
	total := 0
	for part := 0; part < parts; part++ {
		want := part
		if err := p.ReadPart(part, func(rec []byte) error {
			i := int(binary.LittleEndian.Uint32(rec))
			j := int(binary.LittleEndian.Uint32(rec[4:]))
			if i != want || j != i*7 {
				return fmt.Errorf("partition %d: got (%d, %d), want (%d, %d)", part, i, j, want, want*7)
			}
			want += parts
			total++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if total != recs {
		t.Fatalf("replayed %d records, want %d", total, recs)
	}
}

func TestManagerSizing(t *testing.T) {
	m := NewManager(1<<20, "")
	if !m.ShouldSpillGroup(1 << 19) {
		t.Error("group estimate above budget/4 should spill")
	}
	if m.ShouldSpillGroup(1 << 10) {
		t.Error("tiny group estimate should not spill")
	}
	if p := m.GroupPartitions(1 << 22); p < 2 || p > maxPartitions {
		t.Errorf("partitions out of range: %d", p)
	}
	// A matching holds one disk partition at a time whatever its worker
	// count, so the budget holds exactly when one partition fits the share:
	// true for every estimate up to maxPartitions shares.
	share := int64(1<<20) / matchShareDiv
	for _, est := range []int64{share + 1, 2 * share, 3*share + 1, 17 * share, maxPartitions * share} {
		if !m.ShouldSpillMatch(est) {
			t.Errorf("match estimate %d above the share %d should spill", est, share)
		}
		p := int64(m.MatchPartitions(est))
		if p < 2 || p > maxPartitions || (est+p-1)/p > share {
			t.Errorf("match estimate %d: %d partitions, one holds %d B > share %d", est, p, (est+p-1)/p, share)
		}
	}
	if p := m.MatchPartitions(1000 * share); p != maxPartitions {
		t.Errorf("partitions past the cap: %d", p)
	}
	var nilM *Manager
	if nilM.Active() || nilM.ShouldSpillGroup(1<<40) || nilM.ShouldSpillMatch(1<<40) {
		t.Error("nil manager must never spill")
	}
	if NewManager(0, "").Active() {
		t.Error("zero budget must be inactive")
	}
}
