package table

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vector"
)

// TestMorselSourceCoversEverySegmentOnce: concurrent workers must
// jointly claim each morsel exactly once, book every zone-refuted
// morsel as skipped, and reconstruct exactly the surviving segments'
// rows of an unfiltered scan. Column 1 holds each row's segment index,
// so a "seg <> k" conjunct refutes exactly segment k; the filter sets
// shape refuted runs of length 0 (adjacent survivors), 1, many, and one
// running into the last segment.
func TestMorselSourceCoversEverySegmentOnce(t *testing.T) {
	mgr := txn.NewManager(nil)
	dt := New([]types.Type{types.BigInt, types.BigInt}, nil)
	writer := mgr.Begin()
	const rows = 10*SegRows + 17
	const nsegs = 11
	for base := 0; base < rows; base += SegRows {
		n := SegRows
		if rows-base < n {
			n = rows - base
		}
		c := vector.NewChunk(dt.Types())
		for r := 0; r < n; r++ {
			c.AppendRow(types.NewBigInt(int64(base+r)), types.NewBigInt(int64(base/SegRows)))
		}
		if err := dt.Append(writer, c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := mgr.Commit(writer); err != nil {
		t.Fatal(err)
	}
	reader := mgr.Begin()

	cases := []struct {
		name    string
		refuted []int
	}{
		{"none", nil},
		{"runs of 0, 1, many and to the end", []int{2, 4, 5, 6, 7, 9, 10}},
		{"leading run", []int{0, 1, 2}},
		{"last segment only", []int{10}},
		{"all", []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 8} {
			var filters []ZoneFilter
			refuted := map[int]bool{}
			for _, k := range tc.refuted {
				filters = append(filters, ZoneFilter{Col: 1, Op: ZoneNe, Val: types.NewBigInt(int64(k)), Exact: true})
				refuted[k] = true
			}
			var skipped atomic.Int64
			src, err := dt.NewMorselSource(reader, ScanOptions{Columns: []int{0}, ZoneFilters: filters, SegsSkipped: &skipped})
			if err != nil {
				t.Fatal(err)
			}
			if got := src.NumMorsels(); got != nsegs {
				t.Fatalf("NumMorsels = %d, want %d", got, nsegs)
			}

			var mu sync.Mutex
			seqs := map[int]int{}
			var vals []int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					ms := src.Worker()
					for {
						first, n, chunk, err := ms.Claim()
						if err != nil {
							t.Error(err)
							return
						}
						if n == 0 {
							return
						}
						mu.Lock()
						for s := first; s < first+n; s++ {
							seqs[s]++
						}
						if chunk != nil {
							if last := first + n - 1; refuted[last] {
								t.Errorf("%s: chunk for refuted morsel %d", tc.name, last)
							}
							vals = append(vals, chunk.Cols[0].I64[:chunk.Len()]...)
						}
						mu.Unlock()
					}
				}()
			}
			wg.Wait()
			src.Close()

			for s := 0; s < nsegs; s++ {
				if seqs[s] != 1 {
					t.Fatalf("%s/%d workers: morsel %d claimed %d times", tc.name, workers, s, seqs[s])
				}
			}
			if len(seqs) != nsegs {
				t.Fatalf("%s/%d workers: claimed %d distinct morsels, want %d", tc.name, workers, len(seqs), nsegs)
			}
			if got := skipped.Load(); got != int64(len(tc.refuted)) {
				t.Fatalf("%s/%d workers: skipped %d, want %d", tc.name, workers, got, len(tc.refuted))
			}
			var want []int64
			for r := 0; r < rows; r++ {
				if !refuted[r/SegRows] {
					want = append(want, int64(r))
				}
			}
			sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
			if len(vals) != len(want) {
				t.Fatalf("%s/%d workers: scanned %d rows, want %d", tc.name, workers, len(vals), len(want))
			}
			for i := range want {
				if vals[i] != want[i] {
					t.Fatalf("%s/%d workers: row %d = %d, want %d", tc.name, workers, i, vals[i], want[i])
				}
			}
		}
	}
}

// TestMorselSourceSnapshotsSegments: segments appended after the source
// was created are not handed out, and MVCC visibility still applies.
func TestMorselSourceSnapshotsSegments(t *testing.T) {
	mgr := txn.NewManager(nil)
	dt := New([]types.Type{types.BigInt}, nil)
	w1 := mgr.Begin()
	dt.Append(w1, intChunk(1, 2, 3))
	mgr.Commit(w1)

	reader := mgr.Begin()
	src, err := dt.NewMorselSource(reader, ScanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	// Fill the first segment and beyond after the snapshot: the extra
	// segments must not appear, and the newer rows in the first segment
	// are invisible to the reader's snapshot anyway.
	w2 := mgr.Begin()
	dt.Append(w2, rangeChunk(2*SegRows))
	mgr.Commit(w2)

	ms := src.Worker()
	var total int
	for {
		_, n, chunk, err := ms.Claim()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		if chunk != nil {
			total += chunk.Len()
		}
	}
	if total != 3 {
		t.Fatalf("snapshot scan saw %d rows, want 3", total)
	}
}
