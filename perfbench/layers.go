package main

import (
	"fmt"
	"path/filepath"

	"repro/internal/storage"
)

const mib = 1 << 20

// spanTotals sums self time and attributes per span name.
type spanTotals struct {
	count map[string]int64
	self  map[string]int64
	attrs map[string]map[string]int64
	last  map[string]map[string]int64 // attributes of the latest span by name
}

func totals(spans []span) spanTotals {
	t := spanTotals{count: map[string]int64{}, self: map[string]int64{},
		attrs: map[string]map[string]int64{}, last: map[string]map[string]int64{}}
	for _, s := range spans {
		t.count[s.Name]++
		t.self[s.Name] += s.Self
		if t.attrs[s.Name] == nil {
			t.attrs[s.Name] = map[string]int64{}
		}
		for k, v := range s.Attrs {
			t.attrs[s.Name][k] += v
		}
		if s.Attrs != nil {
			t.last[s.Name] = s.Attrs
		}
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layers reports the per-layer metrics of the traced window, and the
// tracing overhead against the untraced window that ran just before it
// on the same database. It writes the span file.
func (rc *runCtx) layers(plain, w *window) error {
	computeSelf(rc.setupTr.spans)
	setup := totals(rc.setupTr.spans)
	win := totals(w.spans)
	ops := float64(w.ops())
	perOp := fmt.Sprintf("per op, %d ops", w.ops())
	put := func(name string, v float64, unit, note string) { rc.rep.put(name, v, unit, note) }

	// Front end: the benchmark's direct calls into each layer.
	put("sql.parse_us_per_op", float64(win.self["sql.parse"])/1e3/ops, "us/op", perOp)
	put("plan.bind_us_per_op", float64(win.self["plan.bind"])/1e3/ops, "us/op", perOp)
	put("plan.optimize_us_per_op", float64(win.self["plan.optimize"])/1e3/ops, "us/op", perOp)
	put("exec.build_us_per_op", float64(win.self["exec.build"])/1e3/ops, "us/op", perOp)

	// Admission and scheduling, from registry deltas over the window.
	put("core.admit_wait_ms_per_op", w.reg("admission_wait_sum_ns")/1e6/ops, "ms/op", perOp)
	put("core.admit_queued_frac", ratio(w.reg("admission_queued_total"), w.reg("admission_admitted_total")), "ratio", "queued/admitted")
	put("sched.steps_per_op", w.reg("sched_steps_total")/ops, "steps/op", perOp)
	put("sched.step_wait_us_per_op", w.reg("sched_step_wait_sum_ns")/1e3/ops, "us/op", perOp)
	put("sched.session_spread", clientSpread(w), "ratio", fmt.Sprintf("max/min ops over %d sessions", len(w.clients)))

	// Table scans.
	scanned, skipped := w.reg("scan_segments_scanned_total"), w.reg("scan_segments_skipped_total")
	put("table.segments_skipped_frac", ratio(skipped, scanned+skipped), "ratio", "skipped/considered")
	put("table.segments_scanned_per_op", scanned/ops, "segments/op", perOp)
	put("table.decompressed_mb_per_op", w.reg("scan_bytes_decompressed_total")/mib/ops, "MiB/op", perOp)

	// Operators: self time by kind from each op's profiled plan tree.
	q := win.attrs["quack.query"]
	for _, k := range opKinds {
		put("exec."+k+"_busy_ms_per_op", float64(q["exec."+k+"_ns"])/1e6/ops, "ms/op", perOp+", profiled plan")
	}
	put("quack.drain_ms_per_op", float64(win.self["quack.drain"])/1e6/ops, "ms/op", perOp)

	// Spilling and the buffer pool.
	put("exec.agg_spill_mb_per_op", w.reg("agg_spill_bytes_total")/mib/ops, "MiB/op", perOp)
	put("extsort.spill_mb_per_op", w.reg("sort_spill_bytes_total")/mib/ops, "MiB/op", perOp)
	put("buffer.evictions_per_op", w.reg("pool_evictions_total")/ops, "evictions/op", perOp)
	put("buffer.pool_peak_mb", float64(w.regAfter["pool_peak_bytes"])/mib, "MiB", "pool high-water mark")
	var heap float64
	for _, c := range w.clients {
		heap = max(heap, c.heapPeak)
	}
	put("runtime.heap_peak_mb", heap/mib, "MiB", "heap objects, sampled at op ends")

	// Writes, whether done while setting up or in the window.
	all := totals(append(append([]span(nil), rc.setupTr.spans...), w.spans...))
	put("quack.append_us_per_row", ratio(float64(all.self["quack.append"])/1e3, float64(all.attrs["quack.append"]["rows"])), "us/row",
		fmt.Sprintf("%d rows", all.attrs["quack.append"]["rows"]))
	put("csvio.copy_us_per_row", ratio(float64(all.self["csvio.copy"])/1e3, float64(all.attrs["csvio.copy"]["rows"])), "us/row",
		fmt.Sprintf("%d rows", all.attrs["csvio.copy"]["rows"]))
	ck := all.attrs["storage.checkpoint"]
	put("wal.bytes_per_row", ratio(float64(ck["wal_bytes"]), float64(ck["wal_rows"])), "bytes/row", "WAL size before each checkpoint")
	put("txn.commit_us", ratio(float64(all.self["txn.commit"])/1e3, float64(all.count["txn.commit"])), "us",
		fmt.Sprintf("mean of %d commits", all.count["txn.commit"]))
	nck := float64(all.count["storage.checkpoint"])
	put("storage.checkpoint_mb_written", ratio(float64(ck["blocks_written"])*storage.BlockSize/mib, nck), "MiB",
		fmt.Sprintf("per checkpoint, %.0f checkpoints", nck))
	put("storage.free_blocks", float64(all.last["storage.checkpoint"]["free_blocks"]), "blocks", "after the last checkpoint")
	put("core.open_ms", ratio(float64(setup.self["core.open"])/1e6, float64(setup.count["core.open"])), "ms",
		fmt.Sprintf("mean of %d opens", setup.count["core.open"]))

	// Go runtime over the traced window.
	put("runtime.alloc_mb_per_op", (w.rtAfter.allocBytes-w.rtBefore.allocBytes)/mib/ops, "MiB/op", perOp)
	put("runtime.gc_cycles_per_op", (w.rtAfter.gcCycles-w.rtBefore.gcCycles)/ops, "cycles/op", perOp)
	put("runtime.gc_cpu_frac", ratio(w.rtAfter.gcCPU-w.rtBefore.gcCPU, w.rtAfter.totalCPU-w.rtBefore.totalCPU), "ratio", "GC CPU / total CPU")

	// What tracing cost.
	put("trace.untraced_ops_per_s", plain.opsPerSec(), "ops/s", fmt.Sprintf("%d ops", plain.ops()))
	put("trace.traced_ops_per_s", w.opsPerSec(), "ops/s", fmt.Sprintf("%d ops", w.ops()))
	put("trace.overhead_frac", 1-w.opsPerSec()/plain.opsPerSec(), "ratio", "1 - traced/untraced ops_per_s")

	path := filepath.Join(filepath.Dir(rc.dir), fmt.Sprintf("spans-%s-seed%d.jsonl", rc.workload, rc.seed))
	if err := writeSpans(path, append(append([]span(nil), rc.setupTr.spans...), w.spans...)); err != nil {
		return err
	}
	fmt.Printf("span file: %s (%d spans)\n", path, len(rc.setupTr.spans)+len(w.spans))
	return nil
}
