package exec

import (
	"sort"

	"repro/internal/plan"
	"repro/internal/table"
	"repro/internal/types"
	"repro/internal/vector"
)

// aggState is the accumulator for one group.
type aggState struct {
	groupKey []types.Value // materialized group column values
	accs     []accumulator
	// firstPos is the packed (seq, row) position where the group was
	// first seen; emission orders the merged groups by it to reproduce
	// the input stream's first-seen order.
	firstPos int64
	// touch is seq+1 of the last morsel that updated the group. A state
	// touched by the in-flight morsel is never spilled: spilling it would
	// split that morsel's DOUBLE subtotal across two partials and change
	// the reduction tree (see agg_spill.go).
	touch int64
	// accounted is the budget charged beyond the flat per-group estimate
	// (per-morsel DOUBLE subtotals, DISTINCT sets).
	accounted int64
}

// extraBytes estimates the state's accumulator growth beyond the flat
// per-group estimate.
func (st *aggState) extraBytes() int64 {
	var n int64
	for j := range st.accs {
		acc := &st.accs[j]
		n += int64(len(acc.subF))*16 + acc.distBytes
	}
	return n
}

// accumulator is one aggregate's running state.
//
// DOUBLE sums are two-level reductions keyed by input sequence: rows of
// one chunk accumulate into curF, which is retained as that chunk's
// subtotal and folded in sequence order at the merge. Every worker
// count therefore evaluates the exact same floating-point reduction
// tree, so results are bit-identical at every thread count despite FP
// addition being non-associative.
type accumulator struct {
	count     int64
	sumI      int64
	sumF      float64
	curF      float64     // in-progress per-chunk DOUBLE subtotal
	curMorsel int64       // 1 + seq of curF's chunk; 0 = no pending subtotal
	subF      []fsub      // retained per-chunk subtotals, folded at finish
	best      types.Value // min/max
	bestSet   bool
	// distinct (non-nil for DISTINCT aggregates) holds the encoded set
	// of values seen; no scalar state accumulates until finish, which
	// folds the set in sorted-key order. That makes worker partials
	// mergeable by plain set union, and the fold order — hence the
	// DOUBLE reduction tree — deterministic at every thread count.
	// distBytes tracks the set's estimated footprint for the budget.
	distinct  map[string]struct{}
	distBytes int64
}

// fsub is one input chunk's DOUBLE subtotal.
type fsub struct {
	seq int64
	sum float64
}

// addF accumulates a DOUBLE value seen in chunk seq.
func (a *accumulator) addF(v float64, seq int64) {
	if a.curMorsel != seq+1 {
		a.flushF()
		a.curMorsel = seq + 1
	}
	a.curF += v
}

// flushF retains the pending per-chunk subtotal for the ordered fold.
func (a *accumulator) flushF() {
	if a.curMorsel == 0 {
		return
	}
	a.subF = append(a.subF, fsub{seq: a.curMorsel - 1, sum: a.curF})
	a.curF = 0
	a.curMorsel = 0
}

// foldSubF folds the retained per-chunk subtotals into sumF in sequence
// order, so the reduction tree follows the input stream whichever
// worker accumulated which chunk.
func (a *accumulator) foldSubF() {
	if len(a.subF) == 0 {
		return
	}
	sort.Slice(a.subF, func(i, j int) bool { return a.subF[i].seq < a.subF[j].seq })
	for _, s := range a.subF {
		a.sumF += s.sum
	}
	a.subF = nil
}

func groupTypes(n *plan.AggNode) []types.Type {
	out := make([]types.Type, len(n.GroupBy))
	for i, g := range n.GroupBy {
		out[i] = g.Type()
	}
	return out
}

// updateAggChunk accumulates one aggregate over a whole chunk with the
// type/function dispatch hoisted out of the row loop. seq is the chunk's
// input sequence number, which keys its DOUBLE subtotals.
func updateAggChunk(spec plan.AggSpec, j int, states []*aggState, arg *vector.Vector, seq int64) {
	if spec.Arg == nil { // count(*)
		for _, st := range states {
			st.accs[j].count++
		}
		return
	}
	if spec.Distinct {
		for r, st := range states {
			updateAgg(spec, &st.accs[j], arg, r)
		}
		return
	}
	allValid := arg.Valid.AllValid()
	switch spec.Func {
	case "count":
		if allValid {
			for _, st := range states {
				st.accs[j].count++
			}
			return
		}
		for r, st := range states {
			if arg.Valid.IsValid(r) {
				st.accs[j].count++
			}
		}
	case "sum", "avg":
		switch arg.Type {
		case types.Integer:
			for r, st := range states {
				if allValid || arg.Valid.IsValid(r) {
					acc := &st.accs[j]
					acc.count++
					acc.sumI += int64(arg.I32[r])
				}
			}
		case types.BigInt, types.Timestamp:
			for r, st := range states {
				if allValid || arg.Valid.IsValid(r) {
					acc := &st.accs[j]
					acc.count++
					acc.sumI += arg.I64[r]
				}
			}
		case types.Double:
			for r, st := range states {
				if allValid || arg.Valid.IsValid(r) {
					acc := &st.accs[j]
					acc.count++
					acc.addF(arg.F64[r], seq)
				}
			}
		case types.Boolean:
			for r, st := range states {
				if allValid || arg.Valid.IsValid(r) {
					acc := &st.accs[j]
					acc.count++
					if arg.Bools[r] {
						acc.sumI++
					}
				}
			}
		}
	case "min", "max":
		for r, st := range states {
			updateAgg(spec, &st.accs[j], arg, r)
		}
	}
}

func updateAgg(spec plan.AggSpec, acc *accumulator, arg *vector.Vector, r int) {
	if spec.Arg == nil { // count(*)
		acc.count++
		return
	}
	if arg.IsNull(r) {
		return
	}
	if acc.distinct != nil {
		k := string(encodeKeyRow(nil, []*vector.Vector{arg}, r))
		if _, ok := acc.distinct[k]; !ok {
			acc.distinct[k] = struct{}{}
			acc.distBytes += int64(len(k)) + 16
		}
		return
	}
	switch spec.Func {
	case "count":
		acc.count++
	case "sum", "avg":
		acc.count++
		switch arg.Type {
		case types.Integer:
			acc.sumI += int64(arg.I32[r])
		case types.BigInt, types.Timestamp:
			acc.sumI += arg.I64[r]
		case types.Boolean:
			if arg.Bools[r] {
				acc.sumI++
			}
		case types.Double:
			acc.sumF += arg.F64[r]
		}
	case "min", "max":
		v := arg.Get(r)
		if !acc.bestSet {
			acc.best = v
			acc.bestSet = true
			return
		}
		c := types.Compare(v, acc.best)
		if (spec.Func == "max" && c > 0) || (spec.Func == "min" && c < 0) {
			acc.best = v
		}
	}
}

func finishAgg(spec plan.AggSpec, acc *accumulator) types.Value {
	if acc.distinct != nil {
		return finishDistinct(spec, acc)
	}
	switch spec.Func {
	case "count":
		return types.NewBigInt(acc.count)
	case "sum":
		if acc.count == 0 {
			return types.NewNull(spec.Type)
		}
		if spec.Type == types.Double {
			return types.NewDouble(acc.sumF)
		}
		return types.NewBigInt(acc.sumI)
	case "avg":
		if acc.count == 0 {
			return types.NewNull(types.Double)
		}
		total := acc.sumF
		if total == 0 && acc.sumI != 0 {
			total = float64(acc.sumI)
		} else if acc.sumI != 0 {
			total += float64(acc.sumI)
		}
		return types.NewDouble(total / float64(acc.count))
	case "min", "max":
		if !acc.bestSet {
			return types.NewNull(spec.Type)
		}
		return acc.best
	default:
		return types.NewNull(spec.Type)
	}
}

// finishDistinct folds a DISTINCT aggregate's value set. The fold walks
// the encoded keys in sorted order — any fixed order works for
// count/min/max, and for DOUBLE sums it pins the reduction tree, so the
// result is identical no matter which workers collected which values.
func finishDistinct(spec plan.AggSpec, acc *accumulator) types.Value {
	if len(acc.distinct) == 0 {
		if spec.Func == "count" {
			return types.NewBigInt(0)
		}
		return types.NewNull(spec.Type)
	}
	if spec.Func == "count" {
		return types.NewBigInt(int64(len(acc.distinct)))
	}
	keys := make([]string, 0, len(acc.distinct))
	for k := range acc.distinct {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	argType := spec.Arg.Type()
	var (
		sumI int64
		sumF float64
		best types.Value
	)
	for i, k := range keys {
		v := decodeValueKey(k, argType)
		switch spec.Func {
		case "sum", "avg":
			switch argType {
			case types.Double:
				sumF += v.F64
			case types.Boolean:
				if v.Bool {
					sumI++
				}
			default:
				sumI += v.I64
			}
		case "min", "max":
			if i == 0 {
				best = v
				continue
			}
			c := types.Compare(v, best)
			if (spec.Func == "max" && c > 0) || (spec.Func == "min" && c < 0) {
				best = v
			}
		}
	}
	n := int64(len(acc.distinct))
	switch spec.Func {
	case "sum":
		if spec.Type == types.Double {
			return types.NewDouble(sumF)
		}
		return types.NewBigInt(sumI)
	case "avg":
		total := sumF
		if argType != types.Double {
			total = float64(sumI)
		}
		return types.NewDouble(total / float64(n))
	case "min", "max":
		return best
	default:
		return types.NewNull(spec.Type)
	}
}

// aggOp is the hash aggregation pipeline breaker. Each worker state of
// its input accumulates into its own partitioned hash table (no sharing,
// no locks on the hot path), and the partials are merged once the input
// drains. Every group records the packed (seq, row) position of its
// first appearance; merging keeps the minimum, and emission orders by it
// — reproducing the first-seen group order of the input stream at every
// worker count. DISTINCT aggregates accumulate only their per-group
// value sets, which merge by set union and fold deterministically at
// finish. Accumulation is vectorized: group states are resolved for a
// whole chunk first, then each aggregate runs a tight typed loop over
// the chunk.
//
// Under an enforced memory budget the workers spill partitions to
// sorted state runs and the finish phase merges resident partials with
// the runs partition-by-partition across ctx.Threads workers (see
// agg_spill.go) — the memory envelope stays bounded at every worker
// count, so a budget never degrades the aggregation to one worker.
type aggOp struct {
	in   breakerInput
	node *plan.AggNode

	tables []*aggTable
	fin    *aggFinish
	built  bool
}

func (a *aggOp) Open(ctx *Context) error {
	a.tables = nil
	a.fin = nil
	a.built = false
	return a.in.Open(ctx)
}

func (a *aggOp) Next(ctx *Context) (*vector.Chunk, error) {
	if !a.built {
		if err := a.build(ctx); err != nil {
			return nil, err
		}
		a.built = true
	}
	return a.fin.next()
}

func (a *aggOp) build(ctx *Context) error {
	// Budget floor: states touched by an in-flight morsel never spill,
	// so every pipeline worker must be able to hold one morsel's worth
	// of distinct groups resident. Clamp the worker count to what the
	// budget admits instead of letting reservation hard-fail (EXPLAIN
	// surfaces the clamp as a NOTE). A pulled input has one worker.
	if p, ok := a.in.(*parScanOp); ok && ctx.Pool != nil {
		if lim := ctx.Pool.Limit(); lim > 0 {
			p.maxWorkers = AggWorkersAdmitted(lim, ctx.Threads, a.node)
		}
	}
	workers := a.in.workerCount(ctx)
	// mkSink runs on the coordinating goroutine, and the partials are
	// only read back after consume has joined every worker, so the
	// tables slice needs no locking.
	err := a.in.consume(ctx, func(w int) func(int, *vector.Chunk) error {
		t := newAggTable(ctx, a.node, workers)
		a.tables = append(a.tables, t)
		return func(seq int, chunk *vector.Chunk) error {
			return t.accumulate(ctx, seq, chunk)
		}
	})
	if err != nil {
		return err
	}
	fin, err := finishAggTables(ctx, a.node, a.tables)
	if err != nil {
		return err
	}
	a.fin = fin
	return nil
}

// AggWorkersAdmitted reports how many parallel accumulation workers an
// enforced memory budget admits for this aggregation. States touched by
// the morsel a worker is accumulating can never spill, so in the worst
// case (every morsel row a distinct group) each worker pins SegRows ×
// per-group state bytes that spilling cannot reclaim; admitting only
// limit / that many workers keeps the unspillable total inside the
// budget instead of letting reservation hard-fail mid-query. Real
// workloads repeat groups across rows, so the clamp binds only when the
// budget is within a few morsels' worth of states. EXPLAIN uses the
// same formula to surface the clamp.
func AggWorkersAdmitted(limit int64, threads int, n *plan.AggNode) int {
	if threads < 1 {
		threads = 1
	}
	if limit <= 0 || threads == 1 {
		return threads
	}
	rowEstimate := keyBytesEstimate(groupTypes(n)) + int64(len(n.Aggs))*48 + 64
	floor := int64(table.SegRows) * rowEstimate
	// Keep one floor's worth of headroom: the flat estimate is exact for
	// the states themselves but covers none of the chunk buffers, spill
	// block buffers or resident shed thresholds sharing the budget, and
	// filling the limit to the byte with unspillable state flips the
	// hard floor at the slightest timing skew.
	w := int(limit/floor) - 1
	if w < 1 {
		w = 1
	}
	if w > threads {
		w = threads
	}
	return w
}

// FindAggregate returns the first hash aggregation in the plan, if any
// (EXPLAIN consults it for the worker-clamp NOTE).
func FindAggregate(node plan.Node) *plan.AggNode {
	if n, ok := node.(*plan.AggNode); ok {
		return n
	}
	for _, c := range node.Children() {
		if n := FindAggregate(c); n != nil {
			return n
		}
	}
	return nil
}

// workerRows reports rows accumulated per build worker (test hook).
func (a *aggOp) workerRows() []int64 {
	out := make([]int64, len(a.tables))
	for i, t := range a.tables {
		out[i] = t.rows
	}
	return out
}

// mergeGroups reports groups merged per finish worker on the spilled
// path (test hook; nil when the finish ran in memory).
func (a *aggOp) mergeGroups() []int64 {
	if a.fin == nil {
		return nil
	}
	return a.fin.mergeGroups
}

// packAggPos packs a (sequence, row) pair into one ordered int64. The
// 16-bit row field must hold any morsel row index (bounded by
// table.SegRows) and any per-chunk row index (bounded by
// vector.ChunkCapacity — the window operator's extend path); the
// compile-time guards below fail if either bound outgrows it.
func packAggPos(seq, row int) int64 { return int64(seq)<<16 | int64(row) }

var (
	_ [1<<16 - table.SegRows]struct{}
	_ [1<<16 - vector.ChunkCapacity]struct{}
)

// mergeAccumulator folds src into dst. DISTINCT accumulators hold only
// their value sets, so merging is a plain set union (finish folds the
// union in sorted-key order). DOUBLE subtotals are concatenated, not
// summed — foldSubF orders them by sequence afterwards.
func mergeAccumulator(spec plan.AggSpec, dst, src *accumulator) {
	if src.distinct != nil {
		if dst.distinct == nil {
			dst.distinct = src.distinct
			dst.distBytes = src.distBytes
		} else {
			for k := range src.distinct {
				if _, ok := dst.distinct[k]; !ok {
					dst.distinct[k] = struct{}{}
					dst.distBytes += int64(len(k)) + 16
				}
			}
		}
		return
	}
	dst.count += src.count
	dst.sumI += src.sumI
	dst.subF = append(dst.subF, src.subF...)
	if src.bestSet {
		if !dst.bestSet {
			dst.best = src.best
			dst.bestSet = true
		} else {
			c := types.Compare(src.best, dst.best)
			if (spec.Func == "max" && c > 0) || (spec.Func == "min" && c < 0) {
				dst.best = src.best
			}
		}
	}
}

func (a *aggOp) Close(ctx *Context) {
	if a.fin != nil {
		a.fin.close()
		a.fin = nil
	}
	for _, t := range a.tables {
		t.close()
	}
	a.tables = nil
	a.in.Close(ctx)
}
