package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/types"
	"repro/quack"
)

// query is one timed SELECT of a workload, with the fingerprint its
// result must have.
type query struct {
	class   string
	sql     string
	args    []any
	ordered bool // result order is part of the answer
	want    fingerprint
}

// fingerprint identifies a result: its row count and a hash of its
// typed values, order-sensitive or a multiset hash.
type fingerprint struct {
	rows int64
	hash uint64
}

// fnv64 is FNV-1a, inlined so hashing a result allocates nothing: the
// benchmark's own garbage would otherwise pace the GC that the measured
// queries run under.
type fnv64 uint64

const fnvOffset fnv64 = 14695981039346656037

func (h *fnv64) byte(b byte) { *h = (*h ^ fnv64(b)) * 1099511628211 }

func (h *fnv64) u64(x uint64) {
	for k := 0; k < 64; k += 8 {
		h.byte(byte(x >> k))
	}
}

// cell hashes one value: a type tag (0 for NULL), then the payload.
func (h *fnv64) cell(t quack.Type, null bool, i64 int64, f64 float64, b bool, str string) {
	if null {
		h.byte(0)
		return
	}
	h.byte(byte(t) + 1)
	switch t {
	case quack.Double:
		h.u64(math.Float64bits(f64))
	case quack.Boolean:
		if b {
			h.byte(1)
		} else {
			h.byte(0)
		}
	case quack.Varchar:
		h.u64(uint64(len(str)))
		for i := 0; i < len(str); i++ {
			h.byte(str[i])
		}
	default:
		h.u64(uint64(i64))
	}
}

type fpAcc struct {
	fp      fingerprint
	ordered bool
}

func (a *fpAcc) add(rh fnv64) {
	a.fp.rows++
	if a.ordered {
		a.fp.hash = (a.fp.hash ^ uint64(rh)) * 0x100000001B3
	} else {
		a.fp.hash += mix(uint64(rh))
	}
}

// fingerprintChunks fingerprints a result drained through the chunk API,
// reading the typed column slices directly.
func fingerprintChunks(chunks []*quack.Chunk, ordered bool) fingerprint {
	acc := fpAcc{ordered: ordered}
	for _, c := range chunks {
		for r := 0; r < c.Len(); r++ {
			h := fnvOffset
			for _, v := range c.Cols {
				var i64 int64
				var f64 float64
				var b bool
				var str string
				null := v.IsNull(r)
				if !null {
					switch v.Type {
					case quack.Integer:
						i64 = int64(v.I32[r])
					case quack.Double:
						f64 = v.F64[r]
					case quack.Boolean:
						b = v.Bools[r]
					case quack.Varchar:
						str = v.Str[r]
					default:
						i64 = v.I64[r]
					}
				}
				h.cell(v.Type, null, i64, f64, b, str)
			}
			acc.add(h)
		}
	}
	return acc.fp
}

// fingerprintRows fingerprints boxed rows from the row engine.
func fingerprintRows(rows [][]quack.Value, ordered bool) fingerprint {
	acc := fpAcc{ordered: ordered}
	for _, row := range rows {
		h := fnvOffset
		for _, v := range row {
			h.cell(v.Type, v.Null, v.I64, v.F64, v.Bool, v.Str)
		}
		acc.add(h)
	}
	return acc.fp
}

func toParams(args []any) []types.Value {
	out := make([]types.Value, len(args))
	for i, a := range args {
		switch v := a.(type) {
		case int64:
			out[i] = types.NewBigInt(v)
		case int:
			out[i] = types.NewBigInt(int64(v))
		case float64:
			out[i] = types.NewDouble(v)
		case string:
			out[i] = types.NewVarchar(v)
		default:
			panic(fmt.Sprintf("unsupported benchmark parameter %T", a))
		}
	}
	return out
}

// client is one closed-loop caller with its own session. Tracing state
// is nil on untraced runs.
type client struct {
	db      *quack.DB
	conn    *quack.Conn
	threads int // engine threads, for the exec.build replay
	tr      *tracer
	nextOp  *atomic.Int64
	// perOpDeltas takes a registry snapshot around each traced op; only
	// meaningful when no other session runs at the same time.
	perOpDeltas bool
	heapPeak    float64

	ops     int64
	failed  int64
	errs    []string // the first few errors, for the report
	wrong   []string // results that differ from their reference
	lat     []time.Duration
	byClass map[string][]time.Duration
	gapSum  time.Duration
	lastEnd time.Time
}

func newClient(db *quack.DB, threads int, tr *tracer, nextOp *atomic.Int64) *client {
	return &client{db: db, conn: db.Conn(), threads: threads, tr: tr, nextOp: nextOp,
		byClass: map[string][]time.Duration{}}
}

// enableProfiling switches the session's per-operator profiler on, so
// every op's plan tree can be read back through PRAGMA last_profile.
func (c *client) enableProfiling() error {
	_, err := c.conn.Exec("PRAGMA profiling=1")
	return err
}

// fail counts a failed op. Its time stays in the gap before the next
// op, so latency + gap still covers the client's whole window.
func (c *client) fail(what string, err error) {
	c.failed++
	if len(c.errs) < 5 {
		c.errs = append(c.errs, fmt.Sprintf("%s: %v", what, err))
	}
}

// mismatch records a wrong result; the first 20 are kept for the report.
func (c *client) mismatch(format string, args ...any) {
	if len(c.wrong) < 20 {
		c.wrong = append(c.wrong, fmt.Sprintf(format, args...))
	}
}

// sample records one completed op's latency and the client-side gap
// since the previous one.
func (c *client) sample(class string, t0 time.Time, lat time.Duration, latency bool) {
	c.gapSum += t0.Sub(c.lastEnd)
	c.lastEnd = t0.Add(lat)
	if latency {
		c.lat = append(c.lat, lat)
	}
	if class != "" {
		c.byClass[class] = append(c.byClass[class], lat)
	}
}

// beginOp opens an op's root span and, on traced runs, replays its
// front end layer by layer (the replay is outside the op's latency).
func (c *client) beginOp(class, sqlText string, args []any) (op int64, root int, before map[string]int64) {
	if c.tr == nil {
		return 0, -1, nil
	}
	op = c.nextOp.Add(1)
	root = c.tr.begin(op, -1, "op")
	c.tr.spans[root].Class = class
	if sqlText != "" {
		c.replayFrontEnd(op, root, sqlText, args)
	}
	if c.perOpDeltas {
		before = c.db.Metrics()
	}
	return op, root, before
}

// endOp closes an op's root span, attaching per-op registry deltas and
// the heap high-water mark sampled at op boundaries.
func (c *client) endOp(root int, before map[string]int64) {
	if c.tr == nil {
		return
	}
	if before != nil {
		after := c.db.Metrics()
		for _, k := range perOpKeys {
			if d := after[k] - before[k]; d != 0 {
				c.tr.annotate(root, k, d)
			}
		}
	}
	c.heapPeak = max(c.heapPeak, readRuntime().heapBytes)
	c.tr.end(root)
}

var perOpKeys = []string{
	"sched_steps_total", "scan_segments_scanned_total", "scan_segments_skipped_total",
	"agg_spill_bytes_total", "sort_spill_bytes_total", "admission_wait_sum_ns",
}

// runQuery times q end to end (Query plus draining every chunk), then
// checks its result against the reference fingerprint.
func (c *client) runQuery(q *query, latency bool) {
	chunks, ok := c.timeQuery(q.class, q.sql, q.args, latency)
	if !ok {
		return
	}
	if got := fingerprintChunks(chunks, q.ordered); got != q.want {
		c.mismatch("%s %q %v: got %d rows (hash %x), want %d rows (hash %x)",
			q.class, q.sql, q.args, got.rows, got.hash, q.want.rows, q.want.hash)
	}
}

// timeQuery runs one SELECT and returns its drained chunks; ok is false
// when the query failed (it is then counted as failed).
func (c *client) timeQuery(class, sqlText string, args []any, latency bool) ([]*quack.Chunk, bool) {
	op, root, before := c.beginOp(class, sqlText, args)
	c.ops++
	t0 := time.Now()
	qs := c.tr.begin(op, root, "quack.query")
	rows, err := c.conn.Query(sqlText, args...)
	c.tr.end(qs)
	if err != nil {
		c.fail(class, err)
		c.endOp(root, before)
		return nil, false
	}
	ds := c.tr.begin(op, root, "quack.drain")
	var chunks []*quack.Chunk
	for ch := rows.NextChunk(); ch != nil; ch = rows.NextChunk() {
		chunks = append(chunks, ch)
	}
	c.tr.end(ds)
	lat := time.Since(t0)
	c.sample(class, t0, lat, latency)
	if c.tr != nil {
		c.readProfile(op, root, qs)
	}
	c.endOp(root, before)
	return chunks, true
}

// do times fn as one op of class. fn runs inside a span named spanName
// and receives the op id and that span, to annotate it or open child
// spans. sqlText, when set, is what a traced run replays through the
// front end.
func (c *client) do(class, spanName, sqlText string, args []any, latency bool, fn func(op int64, s int) error) bool {
	op, root, before := c.beginOp(class, sqlText, args)
	c.ops++
	t0 := time.Now()
	s := c.tr.begin(op, root, spanName)
	err := fn(op, s)
	c.tr.end(s)
	if err != nil {
		c.fail(class, err)
		c.endOp(root, before)
		return false
	}
	c.sample(class, t0, time.Since(t0), latency)
	c.endOp(root, before)
	return true
}

// exec times one statement on the client's session and returns the
// rows it affected.
func (c *client) exec(class, spanName, sqlText string, args ...any) (int64, bool) {
	var n int64
	ok := c.do(class, spanName, sqlText, args, false, func(_ int64, s int) error {
		var err error
		n, err = c.conn.Exec(sqlText, args...)
		c.tr.annotate(s, "rows", n)
		return err
	})
	return n, ok
}

// replayFrontEnd times the front-end layers on the op's SQL by calling
// their entry points directly: sql.Parse, plan.Binder.Bind*,
// plan.Optimize and exec.BuildParallel. The engine repeats this work
// inside the real call; the replay only attributes its cost.
func (c *client) replayFrontEnd(op int64, root int, sqlText string, args []any) {
	s := c.tr.begin(op, root, "sql.parse")
	stmts, err := sql.Parse(sqlText)
	c.tr.end(s)
	if err != nil {
		return
	}
	cat := c.db.Internal().Catalog()
	for _, st := range stmts {
		b := &plan.Binder{Cat: cat, Params: toParams(args)}
		var bind func() (plan.Node, error)
		switch x := st.(type) {
		case *sql.SelectStmt:
			bind = func() (plan.Node, error) { return b.BindSelect(x) }
		case *sql.InsertStmt:
			bind = func() (plan.Node, error) { return b.BindInsert(x) }
		case *sql.UpdateStmt:
			bind = func() (plan.Node, error) { return b.BindUpdate(x) }
		case *sql.DeleteStmt:
			bind = func() (plan.Node, error) { return b.BindDelete(x) }
		default:
			continue
		}
		s = c.tr.begin(op, root, "plan.bind")
		node, err := bind()
		c.tr.end(s)
		if _, isSelect := st.(*sql.SelectStmt); err != nil || !isSelect {
			continue
		}
		s = c.tr.begin(op, root, "plan.optimize")
		node = plan.Optimize(node)
		c.tr.end(s)
		s = c.tr.begin(op, root, "exec.build")
		_, _ = exec.BuildParallel(node, c.threads) // built, never opened: cost only
		c.tr.end(s)
	}
}

// profNode mirrors the plan tree of PRAGMA last_profile.
type profNode struct {
	Name     string      `json:"name"`
	WallNs   int64       `json:"wall_ns"`
	BusyNs   int64       `json:"busy_ns"`
	Children []*profNode `json:"children"`
}

// opKind maps a profiled plan node to the operator kind it reports under.
func opKind(name string) string {
	w, _, _ := strings.Cut(name, " ")
	switch {
	case w == "SCAN":
		return "scan"
	case w == "FILTER":
		return "filter"
	case w == "PROJECT":
		return "project"
	case w == "AGGREGATE":
		return "agg"
	case strings.Contains(name, "JOIN"):
		return "join"
	case w == "SORT":
		return "sort"
	case w == "WINDOW":
		return "window"
	case w == "LIMIT":
		return "limit"
	}
	return "other"
}

var opKinds = []string{"scan", "filter", "project", "agg", "join", "sort", "window", "limit"}

// nodeTime is a node's time on the query's wall clock: its inclusive
// wall time where the profiler measured one, else its busy time (summed
// over the query's worker threads) spread over those threads, else —
// for a node the engine folded into another operator — its children's.
func nodeTime(n *profNode, threads int64) int64 {
	if n.WallNs > 0 {
		return n.WallNs
	}
	if n.BusyNs > 0 {
		return n.BusyNs / max(threads, 1)
	}
	var t int64
	for _, c := range n.Children {
		t += nodeTime(c, threads)
	}
	return t
}

// opSelf adds each measured node's self time to out by operator kind:
// busy time for pipeline scans, and for the others their wall time
// minus their children's (see nodeTime).
func opSelf(n *profNode, threads int64, out map[string]int64) {
	switch {
	case n.WallNs > 0:
		var kids int64
		for _, c := range n.Children {
			kids += nodeTime(c, threads)
		}
		out[opKind(n.Name)] += max(0, n.WallNs-kids)
	case n.BusyNs > 0:
		out[opKind(n.Name)] += n.BusyNs
	}
	for _, c := range n.Children {
		opSelf(c, threads, out)
	}
}

// readProfile reads the op's profile and annotates the query span with
// per-operator-kind self time.
func (c *client) readProfile(op int64, root, qs int) {
	s := c.tr.begin(op, root, "bench.profile")
	defer c.tr.end(s)
	rows, err := c.conn.Query("PRAGMA last_profile")
	if err != nil || rows.NumRows() != 1 {
		return
	}
	var prof struct {
		Threads int64     `json:"threads"`
		Plan    *profNode `json:"plan"`
	}
	if err := json.Unmarshal([]byte(rows.Chunks()[0].Cols[0].Get(0).Str), &prof); err != nil || prof.Plan == nil {
		return
	}
	self := map[string]int64{}
	opSelf(prof.Plan, prof.Threads, self)
	for k, v := range self {
		c.tr.annotate(qs, "exec."+k+"_ns", v)
	}
}
