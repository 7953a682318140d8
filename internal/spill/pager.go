package spill

import "os"

// Pager spills fixed-size records into hash partitions backed by one
// unlinked temp file — the disk half of the partitioned overlap index and
// matching. Writes buffer per partition and flush full pages to
// the file; reads replay one partition's pages in write order, so a
// partition's records come back exactly as they went in. A Pager belongs
// to one external operation and is closed when the operation finishes.
//
// The write phase is single-goroutine; after Flush, distinct partitions
// may be read concurrently (the page index is immutable and reads go
// through ReadAt).
type Pager struct {
	f        *os.File
	recBytes int
	off      int64
	written  int64

	bufs  [][]byte  // per-partition fill buffer
	pages [][]pgRef // per-partition flushed pages, in write order
	used  []bool
	st    *Stats
}

// pgRef locates one flushed page in the file.
type pgRef struct {
	off int64
	n   int // bytes
}

// pagerBufBytes is the per-partition buffer target. 32 KiB keeps flushes
// large enough to be sequential-ish while 64 partitions still only hold
// 2 MiB of buffers.
const pagerBufBytes = 32 << 10

// NewPager creates a pager with parts partitions of recBytes-sized
// records, accounting spilled volume into st (which may be nil).
func (m *Manager) NewPager(parts, recBytes int, st *Stats) (*Pager, error) {
	f, err := m.tempFile("affidavit-spill-*")
	if err != nil {
		return nil, err
	}
	bufRecs := pagerBufBytes / recBytes
	if bufRecs < 16 {
		bufRecs = 16
	}
	p := &Pager{
		f:        f,
		recBytes: recBytes,
		bufs:     make([][]byte, parts),
		pages:    make([][]pgRef, parts),
		used:     make([]bool, parts),
		st:       st,
	}
	for i := range p.bufs {
		p.bufs[i] = make([]byte, 0, bufRecs*recBytes)
	}
	return p, nil
}

// Write appends one record (len(rec) == recBytes) to a partition.
func (p *Pager) Write(part int, rec []byte) error {
	p.used[part] = true
	p.bufs[part] = append(p.bufs[part], rec...)
	if cap(p.bufs[part])-len(p.bufs[part]) < p.recBytes {
		return p.flushPart(part)
	}
	return nil
}

func (p *Pager) flushPart(part int) error {
	b := p.bufs[part]
	if len(b) == 0 {
		return nil
	}
	if _, err := p.f.WriteAt(b, p.off); err != nil {
		return err
	}
	p.pages[part] = append(p.pages[part], pgRef{off: p.off, n: len(b)})
	p.off += int64(len(b))
	p.written += int64(len(b))
	p.bufs[part] = b[:0]
	return nil
}

// Flush writes every partition's pending buffer and records the spill
// totals: the bytes that went to disk plus one partition count per
// non-empty partition. Call once, between the write and read phases.
func (p *Pager) Flush() error {
	for part := range p.bufs {
		if err := p.flushPart(part); err != nil {
			return err
		}
	}
	parts := 0
	for _, u := range p.used {
		if u {
			parts++
		}
	}
	p.st.Note(p.written, parts)
	return nil
}

// ReadPart replays one partition's records in write order. The record
// slice passed to fn is reused between calls; fn must not retain it.
func (p *Pager) ReadPart(part int, fn func(rec []byte) error) error {
	var buf []byte
	for _, pg := range p.pages[part] {
		if cap(buf) < pg.n {
			buf = make([]byte, pg.n)
		}
		buf = buf[:pg.n]
		if _, err := p.f.ReadAt(buf, pg.off); err != nil {
			return err
		}
		for o := 0; o < pg.n; o += p.recBytes {
			if err := fn(buf[o : o+p.recBytes]); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close releases the pager's file (already unlinked at creation).
func (p *Pager) Close() error { return p.f.Close() }
