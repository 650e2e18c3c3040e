package quack_test

import (
	"fmt"
	"testing"

	"repro/quack"
)

// TestSelectiveScanStepsFollowSurvivors: a morsel claim takes every
// zone-refuted segment up to the next survivor, so a 0.1%-selective
// range over 1100 segments costs scheduler steps in proportion to the
// surviving morsels, not to the table — at one worker state as at many.
func TestSelectiveScanStepsFollowSurvivors(t *testing.T) {
	const segs = 1100
	const rows = segs * 1024
	for _, threads := range []int{1, 4} {
		db, err := quack.Open(":memory:", quack.WithThreads(threads))
		if err != nil {
			t.Fatal(err)
		}
		mustExec(t, db, "PRAGMA zone_maps=1")
		mustExec(t, db, "CREATE TABLE t (v BIGINT)")
		app, err := db.Appender("t")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if err := app.AppendRow(int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := app.Close(); err != nil {
			t.Fatal(err)
		}
		lo := rows / 2
		hi := lo + rows/1000
		for _, q := range []string{
			fmt.Sprintf("SELECT v FROM t WHERE v >= %d AND v < %d", lo, hi),
			fmt.Sprintf("SELECT count(*), sum(v) FROM t WHERE v >= %d AND v < %d", lo, hi),
		} {
			m0 := db.Metrics()
			queryAll(t, db, q)
			m1 := db.Metrics()
			steps := m1["sched_steps_total"] - m0["sched_steps_total"]
			scanned := m1["scan_segments_scanned_total"] - m0["scan_segments_scanned_total"]
			skipped := m1["scan_segments_skipped_total"] - m0["scan_segments_skipped_total"]
			if skipped < segs-4 {
				t.Fatalf("threads=%d %q: only %d of %d segments skipped", threads, q, skipped, segs)
			}
			// One claim per survivor, one for the trailing refuted run,
			// one exhausted claim per worker state, plus a little slack
			// for parked states and breaker finish steps.
			if limit := scanned + 2*int64(threads) + 4; steps > limit {
				t.Errorf("threads=%d %q: %d scheduler steps for %d surviving morsels, want <= %d",
					threads, q, steps, scanned, limit)
			}
		}
		db.Close()
	}
}
