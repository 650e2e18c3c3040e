package table

import (
	"sync/atomic"

	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vector"
)

// MorselSource hands out table segments ("morsels") to the workers of a
// parallel scan. The segment list and per-segment row counts are
// snapshotted at creation, so every worker sees the same, fixed set of
// morsels regardless of concurrent (or the transaction's own) appends;
// MVCC visibility is still reconstructed per row, so the scan observes
// exactly the rows its transaction's snapshot allows. Workers
// draw the next unclaimed segment from a shared atomic counter — the
// morsel-driven scheduling that keeps all cores busy without any
// up-front range partitioning.
//
// The source pins the projected columns once for all workers; Close
// releases the pins. A MorselSource is safe for concurrent use; the
// MorselScanner values it hands out are not (one per worker).
type MorselSource struct {
	t       *DataTable
	tx      *txn.Transaction
	cols    []int
	rowIDs  bool
	opts    ScanOptions
	segs    []*segment
	ns      []int // per-segment row counts at snapshot time
	release func()
	next    atomic.Int64
	closed  atomic.Bool
}

// NewMorselSource pins the projected columns and snapshots the segment
// list for a parallel scan. Callers must Close it to release the pins.
func (t *DataTable) NewMorselSource(tx *txn.Transaction, opts ScanOptions) (*MorselSource, error) {
	cols, err := t.resolveColumns(opts.Columns)
	if err != nil {
		return nil, err
	}
	release, err := t.PinColumns(cols)
	if err != nil {
		return nil, err
	}
	segs, ns := t.snapshotSegments()
	return &MorselSource{
		t:       t,
		tx:      tx,
		cols:    cols,
		rowIDs:  opts.WithRowIDs,
		opts:    opts,
		segs:    segs,
		ns:      ns,
		release: release,
	}, nil
}

// OutputTypes returns the chunk schema every worker produces.
func (m *MorselSource) OutputTypes() []types.Type {
	r := segReader{t: m.t, cols: m.cols, rowIDs: m.rowIDs}
	return r.outputTypes()
}

// NumMorsels returns the total number of morsels the source will hand
// out. Sequence numbers are dense in [0, NumMorsels).
func (m *MorselSource) NumMorsels() int { return len(m.segs) }

// Worker returns a new scanner drawing morsels from the shared counter.
// Each worker goroutine must use its own.
func (m *MorselSource) Worker() *MorselScanner {
	return &MorselScanner{
		segReader: newSegReader(m.t, m.tx, m.cols, m.rowIDs, m.opts.ZoneFilters),
		src:       m,
	}
}

// Close releases the column pins. Idempotent.
func (m *MorselSource) Close() {
	if !m.closed.Swap(true) {
		m.release()
	}
}

// MorselScanner is one worker's view of a MorselSource. Sequential
// readers (checkpoint serialization, COPY TO, the row engine) are simply
// a source with one worker.
type MorselScanner struct {
	segReader
	src *MorselSource
}

// Claim takes the next run of morsels with one CAS on the shared
// cursor: every morsel the pushed zone filters refute from the cursor
// on, plus the first one they do not, which it materializes. It returns
// the run's first sequence number and its length n; n is 0 when the
// source is exhausted. The survivor, when the run has one, is sequence
// first+n-1 and chunk holds its snapshot-visible rows (nil when none
// are). A run that reaches the last morsel without a survivor returns a
// nil chunk. Refuted morsels are counted as skipped once the claim
// succeeds, so every sequence number is claimed exactly once and
// skipping changes which morsels do work, never the merged output.
//
//quack:hotpath
func (w *MorselScanner) Claim() (first, n int, chunk *vector.Chunk, err error) {
	src := w.src
	total := int64(len(src.segs))
	for {
		start := src.next.Load()
		if start >= total {
			return -1, 0, nil, nil
		}
		idx := start
		for idx < total && segRefuted(src.t, src.segs[idx], src.opts.ZoneFilters) {
			idx++
		}
		stop := min(idx+1, total)
		if !src.next.CompareAndSwap(start, stop) {
			continue // another worker claimed from this cursor; re-read it
		}
		src.opts.countSkipped(int(idx - start))
		if idx < total {
			chunk, err = w.scanMorsel(idx)
		}
		return int(start), int(stop - start), chunk, err
	}
}

// scanMorsel materializes morsel idx: through the encoded kernels when
// they apply, else by decoding the projected columns.
//
//quack:hotpath
func (w *MorselScanner) scanMorsel(idx int64) (*vector.Chunk, error) {
	src := w.src
	seg, base, maxRows := src.segs[idx], idx*SegRows, src.ns[idx]
	if src.opts.EncodedExec {
		if chunk, selected, ok := w.scanSegmentEncoded(seg, base, maxRows); ok {
			src.opts.countScanned()
			src.opts.countEncoded(selected)
			return chunk, nil
		}
	}
	if err := src.t.materializeSegCols(seg, src.cols); err != nil {
		return nil, err
	}
	src.opts.countScanned()
	chunk := w.scanSegment(seg, base, maxRows)
	rows := 0
	if chunk != nil {
		rows = chunk.Len()
	}
	src.opts.countMaterialized(maxRows, rows)
	return chunk, nil
}
