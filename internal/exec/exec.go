// Package exec is QuackDB's vectorized "Vector Volcano" execution engine
// (paper §6): pull-based physical operators exchanging 1024-row chunks
// of column slices. Query execution commences by pulling the first chunk
// from the root operator, which recursively pulls from its children down
// to the table scans. The client application itself acts as the true
// root: it polls the engine for chunks, which are handed over without
// copying (§5).
//
// # Morsel-driven parallelism
//
// An embedded engine must use all of the host's hardware (§6), so plans
// are decomposed into pipelines: maximal scan→filter→project chains
// terminated by pipeline breakers (hash aggregate and hash join builds,
// sorts, the result sink). Every table scan is such a pipeline, at every
// thread count: its worker states run on the engine-wide scheduler and
// draw table segments ("morsels") from a shared atomic cursor, keeping
// every core busy without up-front range partitioning. Operator state is
// worker-local — each worker owns partial aggregate hash tables and
// partitioned join-build tables — and is merged once at the pipeline
// breaker. Streaming pipelines reassemble their output in morsel order,
// and breaker merges order groups by first appearance and join matches
// by build position, so the output is the same whatever the number of
// worker states (Context.Threads = 1 is simply one). The breakers that
// consume whole inputs (aggregate, sort, window) have one input path:
// every child is a breakerInput feeding (seq, chunk) pairs into sinks —
// a pipeline's worker states, or a child that is not a pipeline (an
// aggregate over a join, a sort over a union) pulled on the consumer as
// one worker state numbering its chunks in stream order. The independent
// correctness baseline is the tuple-at-a-time row engine (rowengine.go).
//
// The package also houses the join-strategy decision the paper's
// cooperation section describes (§4): an equi-join prefers an in-memory
// hash join, but when the build side does not fit the buffer pool's
// budget it degrades to an out-of-core merge join — fewer resident
// bytes, more CPU and disk IO.
package exec

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/buffer"
	"repro/internal/plan"
	"repro/internal/sched"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vector"
)

// JoinStrategy selects the physical equi-join implementation.
type JoinStrategy int

// Join strategies. Auto asks the buffer pool whether the estimated build
// side fits and falls back to merge join when it does not.
const (
	JoinAuto JoinStrategy = iota
	JoinForceHash
	JoinForceMerge
)

// Logger receives the logical change records the engine queues into the
// transaction's WAL buffer. The core layer implements it with the real
// WAL encoding; tests may pass nil (no logging).
type Logger interface {
	LogInsert(tx *txn.Transaction, table string, chunk *vector.Chunk)
	LogUpdate(tx *txn.Transaction, table string, col int, rowIDs []int64, vals *vector.Vector)
	LogDelete(tx *txn.Transaction, table string, rowIDs []int64)
}

// Stats aggregates engine-level execution counters. One instance lives
// for the lifetime of a database and is shared by every query context;
// the core layer surfaces the counters through PRAGMAs.
type Stats struct {
	// AggSpillPartitions counts aggregation partition-spill events: a
	// hash-aggregation partition whose accumulator states were written
	// to a sorted state run because the memory budget was exceeded.
	AggSpillPartitions atomic.Int64
	// AggSpilledBytes totals the bytes written to aggregation state
	// runs.
	AggSpilledBytes atomic.Int64
	// SegmentsScanned counts table-scan segments that were materialized;
	// SegmentsSkipped counts segments refuted by zone maps (or their
	// compressed payloads) without being touched.
	SegmentsScanned atomic.Int64
	SegmentsSkipped atomic.Int64
	// SegmentsEncodedExec counts scanned segments whose pushed filters
	// executed directly over the compressed payloads (also counted in
	// SegmentsScanned); RowsEncodedSelected totals the rows those
	// segments selected and gathered instead of decoding fully.
	SegmentsEncodedExec atomic.Int64
	RowsEncodedSelected atomic.Int64
	// SortSpilledBytes totals the bytes external sorts (ORDER BY, window
	// sorts) wrote to spill runs under a memory budget.
	SortSpilledBytes atomic.Int64
}

// Context carries per-query execution state.
type Context struct {
	Txn    *txn.Transaction
	Pool   *buffer.Pool
	Logger Logger
	TmpDir string
	// Stats receives engine-level counters when set (database-shared).
	Stats *Stats
	// JoinStrategy overrides the adaptive join choice (experiments).
	JoinStrategy JoinStrategy
	// DisableZoneMaps turns off zone-map segment skipping (the
	// differential baseline: results must be byte-identical either way).
	DisableZoneMaps bool
	// DisableEncodedExec turns off encoded execution: predicates over
	// still-compressed segments with late materialization. Same
	// differential contract as DisableZoneMaps. Encoded execution rides
	// on the pushed zone filters, so disabling zone maps disables it too.
	DisableEncodedExec bool
	// SortBudget caps the in-memory footprint of sorts; <=0 derives it
	// from the pool limit.
	SortBudget int64
	// Threads sizes the worker state of pipelines (morsel scanners,
	// partial tables, merge ranges); <=1 means one worker state. The
	// compiled tree does not depend on it. Execution itself runs on
	// Sched's engine-wide pool, so Threads bounds a query's task width,
	// not its goroutines.
	Threads int
	// Sched is the engine-wide worker pool shared by every session of a
	// database. nil falls back to a process-global default pool sized at
	// GOMAXPROCS (bare test contexts).
	Sched *sched.Scheduler
	// Query is this query's scheduler account (fair share + priority).
	// Lazily created on first use; the core layer pre-creates it with
	// the session's PRAGMA priority.
	Query *sched.Query
	// Priority seeds the lazily created Query (0 = default weight).
	Priority int
	// Prof, when non-nil, collects this query's per-operator profile
	// (EXPLAIN ANALYZE / PRAGMA profiling). The tree must have been
	// compiled with the same Profiler (Compile). nil is
	// the off state: no hooks fire, nothing allocates.
	Prof *Profiler
	// QStats, when non-nil, receives the per-query roll-ups the
	// slow-query log reports.
	QStats *QueryStats
}

var (
	defSchedOnce sync.Once
	defSched     *sched.Scheduler
)

// defaultSched is the process-global pool used by contexts without an
// engine (direct exec tests). Sized at GOMAXPROCS like core.Open.
func defaultSched() *sched.Scheduler {
	defSchedOnce.Do(func() { defSched = sched.New(runtime.GOMAXPROCS(0)) })
	return defSched
}

// queryTasks returns the query's scheduling account, creating it on the
// session goroutine at first use. Operators capture the result at start
// time and submit all their steps through it.
func (c *Context) queryTasks() *sched.Query {
	if c.Query == nil {
		s := c.Sched
		if s == nil {
			s = defaultSched()
		}
		c.Query = s.NewQuery(c.Priority)
	}
	return c.Query
}

func (c *Context) sortBudget() int64 {
	if c.SortBudget > 0 {
		return c.SortBudget
	}
	if c.Pool != nil {
		if l := c.Pool.Limit(); l > 0 {
			return l / 2
		}
	}
	return 0 // unlimited, no spill
}

// Operator is a pull-based physical operator.
type Operator interface {
	// Open prepares the operator (and its children) for execution.
	Open(ctx *Context) error
	// Next returns the next chunk, or nil when exhausted.
	Next(ctx *Context) (*vector.Chunk, error)
	// Close releases resources. Idempotent.
	Close(ctx *Context)
}

// Compile translates a logical plan into a physical operator tree. Every
// scan→filter→project chain becomes a morsel-driven pipeline, whatever
// the thread count: the executing Context's Threads only sizes its
// worker states. With a non-nil prof, profiling hooks are compiled into
// the tree: operators are wrapped with their plan node's profile slot
// and pipeline stages count rows per node. prof must come from
// NewProfiler over the same (optimized) plan, and the executing Context
// must carry it in Prof.
func Compile(node plan.Node, prof *Profiler) (Operator, error) { return build(node, prof) }

// BuildParallel is Compile without profiling; threads is ignored.
func BuildParallel(node plan.Node, threads int) (Operator, error) { return build(node, nil) }

func build(node plan.Node, prof *Profiler) (Operator, error) {
	// A maximal scan→filter→project chain becomes one morsel-driven
	// pipeline streaming into whatever sits above it. The pipeline
	// operator is never wrapped: its per-node row counts come from stage
	// hooks and the morsel claim site, and parents (the hash join)
	// type-assert on *parScanOp to attach stages.
	if spec := compilePipeline(node, prof); spec != nil {
		return newParScanOp(spec), nil
	}
	// Filter/project chains stranded above a breaker (HAVING over an
	// aggregate, the projection stripping hidden sort columns, ...) run
	// on an exchange instead of pull-based operators.
	if op, ok, err := buildExchange(node, prof); ok {
		return op, err
	}
	switch n := node.(type) {
	case *plan.FilterNode:
		child, err := build(n.Child, prof)
		if err != nil {
			return nil, err
		}
		return prof.wrap(&filterOp{child: child, cond: n.Cond}, n, true), nil
	case *plan.ProjectNode:
		child, err := build(n.Child, prof)
		if err != nil {
			return nil, err
		}
		return prof.wrap(&projectOp{child: child, exprs: n.Exprs, types: schemaTypes(n.Schema())}, n, true), nil
	case *plan.JoinNode:
		left, err := build(n.Left, prof)
		if err != nil {
			return nil, err
		}
		right, err := build(n.Right, prof)
		if err != nil {
			return nil, err
		}
		if len(n.LeftKeys) == 0 {
			if n.Type == plan.JoinCross && n.Extra == nil {
				return prof.wrap(newNLJoin(left, right, n, nil), n, true), nil
			}
			return prof.wrap(newNLJoin(left, right, n, n.Extra), n, true), nil
		}
		return prof.wrap(newEquiJoin(left, right, n), n, true), nil
	case *plan.AggNode:
		// Each input worker state accumulates a partial aggregate;
		// DISTINCT aggregates participate, their per-worker value sets
		// merging by set union.
		in, err := buildInput(n.Child, prof)
		if err != nil {
			return nil, err
		}
		return prof.wrap(&aggOp{in: in, node: n}, n, true), nil
	case *plan.SortNode:
		// Each input worker state builds sorted runs; the breaker k-way
		// merges them.
		in, err := buildInput(n.Child, prof)
		if err != nil {
			return nil, err
		}
		return prof.wrap(&sortOp{in: in, node: n}, n, true), nil
	case *plan.WindowNode:
		in, err := buildInput(n.Child, prof)
		if err != nil {
			return nil, err
		}
		return prof.wrap(newWindowOp(n, in), n, true), nil
	case *plan.LimitNode:
		child, err := build(n.Child, prof)
		if err != nil {
			return nil, err
		}
		return prof.wrap(&limitOp{child: child, limit: n.Limit, offset: n.Offset}, n, true), nil
	case *plan.UnionAllNode:
		ops := make([]Operator, len(n.Inputs))
		for i, in := range n.Inputs {
			op, err := build(in, prof)
			if err != nil {
				return nil, err
			}
			ops[i] = op
		}
		return prof.wrap(&unionOp{inputs: ops}, n, true), nil
	case *plan.ValuesNode:
		return prof.wrap(&valuesOp{node: n}, n, true), nil
	case *plan.InsertNode:
		// DML input scans run parallel like any query: the morsel source
		// snapshots the segment list at open, so an INSERT ... SELECT
		// reading its own target inserts exactly the pre-existing rows,
		// and the ordered merge keeps the consumed row order independent
		// of the worker count. The write itself stays on the consumer.
		child, err := build(n.Child, prof)
		if err != nil {
			return nil, err
		}
		return prof.wrap(&insertOp{child: child, table: n.Table}, n, true), nil
	case *plan.UpdateNode:
		// UPDATE/DELETE materialize every row id before touching the
		// table (Halloween protection), so their filter scans can fan
		// out across workers too.
		child, err := build(n.Child, prof)
		if err != nil {
			return nil, err
		}
		return prof.wrap(&updateOp{child: child, node: n}, n, true), nil
	case *plan.DeleteNode:
		child, err := build(n.Child, prof)
		if err != nil {
			return nil, err
		}
		return prof.wrap(&deleteOp{child: child, table: n.Table}, n, true), nil
	default:
		return nil, fmt.Errorf("exec: no operator for %T", node)
	}
}

// Run drains an operator tree, invoking sink for every chunk. It opens
// and closes the tree.
func Run(ctx *Context, op Operator, sink func(*vector.Chunk) error) error {
	if err := op.Open(ctx); err != nil {
		op.Close(ctx)
		return err
	}
	defer op.Close(ctx)
	for {
		chunk, err := op.Next(ctx)
		if err != nil {
			return err
		}
		if chunk == nil {
			return nil
		}
		if sink != nil {
			if err := sink(chunk); err != nil {
				return err
			}
		}
	}
}

// Collect drains an operator tree into a slice of chunks.
func Collect(ctx *Context, op Operator) ([]*vector.Chunk, error) {
	var out []*vector.Chunk
	err := Run(ctx, op, func(c *vector.Chunk) error {
		out = append(out, c)
		return nil
	})
	return out, err
}

func schemaTypes(cols []plan.ColInfo) []types.Type {
	out := make([]types.Type, len(cols))
	for i, c := range cols {
		out[i] = c.Type
	}
	return out
}

// errStop is used internally to stop Run early (limit).
var errStop = errors.New("stop")
