// Command perfbench is QuackDB's repository benchmark. It drives the
// engine through its public API (quack.Open, Conn, Tx, Appender,
// Rows.NextChunk) on one of three closed-loop workloads, checks every
// result it times, and prints every metric by name with its unit; the
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload analytics|serve|etl --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the same
// workload and seed twice, untraced then traced, each for S/2 seconds,
// and reports the per-layer metrics, the tracing overhead, and writes
// the span file. See README.md for the metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/quack"
)

// setupRuns is how many times a run sets its workload up; setup_s is
// the median, and the last set-up database is the one measured.
const setupRuns = 5

// An untraced window runs past its deadline until it has minCycles
// cycles and minLatencySamples latency samples: each cycle gives one
// sample per query class and a class median needs minBeyond samples
// above it; latency_p99_ms needs minBeyond samples above the p99.
const (
	minCycles         = 2*minBeyond + 4
	minLatencySamples = 100 * minBeyond
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's metrics in print order, each with a note
// (sample count or basis) for the human-readable table.
type report struct {
	names []string
	m     map[string]metric
	notes map[string]string
}

func (r *report) put(name string, v float64, unit, note string) {
	if r.m == nil {
		r.m = map[string]metric{}
		r.notes = map[string]string{}
	}
	if _, dup := r.m[name]; !dup {
		r.names = append(r.names, name)
	}
	r.m[name] = metric{Value: v, Unit: unit}
	r.notes[name] = note
}

// runCtx is one benchmark process: its inputs, scratch directory and
// what it has found so far.
type runCtx struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	dir      string
	threads  int

	opSeq   atomic.Int64 // op ids, shared by concurrent clients
	setupTr *tracer      // set-up spans (loads, checkpoints, opens): always kept
	rep     report

	// What every timed window found.
	attempted, failed int64
	wrong             []string // results that differ from their reference
	errs              []string // the first errors of failed ops
}

// more reports whether a cycle-based workload's client c should start
// another cycle: until the deadline, and on untraced runs until the
// window holds enough samples for every percentile it reports.
func (rc *runCtx) more(c *client, cycles int, deadline time.Time) bool {
	return time.Now().Before(deadline) ||
		(!rc.trace && (cycles < minCycles || len(c.lat) < minLatencySamples))
}

func (rc *runCtx) path(name string) string { return filepath.Join(rc.dir, name) }

func (rc *runCtx) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix(rc.seed ^ uint64(stream)))))
}

// setupInfo is what one set-up repetition measured.
type setupInfo struct {
	dur         time.Duration
	ingestRows  int64
	ingestDur   time.Duration
	ckpt        time.Duration
	bytesPerRow float64
}

// window is one timed stretch of a workload: its clients and the engine
// and runtime counters bracketing it.
type window struct {
	clients   []*client
	start     time.Time
	wall      time.Duration
	rssPeaks  []float64 // VmHWM of each rssInterval, MiB
	regBefore map[string]int64
	regAfter  map[string]int64
	rtBefore  rtSample
	rtAfter   rtSample
	spans     []span // traced windows only
}

func (w *window) ops() (n int64) {
	for _, c := range w.clients {
		n += c.ops
	}
	return n
}

func (w *window) opsPerSec() float64 { return float64(w.ops()) / w.wall.Seconds() }

func (w *window) reg(name string) float64 { return float64(w.regAfter[name] - w.regBefore[name]) }

// latencies pools every client's latency samples.
func (w *window) latencies() []time.Duration {
	var all []time.Duration
	for _, c := range w.clients {
		all = append(all, c.lat...)
	}
	return all
}

func (w *window) class(name string) []time.Duration {
	var all []time.Duration
	for _, c := range w.clients {
		all = append(all, c.byClass[name]...)
	}
	return all
}

// workload is the part of a run that differs between workloads.
type workload struct {
	// setup builds the workload's database from the seed and returns it
	// open and warmed up.
	setup func(rc *runCtx, i int) (*quack.DB, setupInfo, error)
	// reference computes the expected results on the first set-up's
	// database, which is discarded afterwards.
	reference func(rc *runCtx, db *quack.DB) error
	// run drives the clients until the deadline.
	run func(rc *runCtx, db *quack.DB, clients []*client, deadline time.Time)
	// sessions is the closed-loop client count, threads the engine's.
	sessions, threads int
	// endToEnd reports the workload's end-to-end metrics.
	endToEnd func(rc *runCtx, w *window, setups []setupInfo) error
	// finish closes the database and runs the end-of-run checks.
	finish func(rc *runCtx, db *quack.DB) error
}

// workloads builds each workload for a host with nproc CPUs.
var workloads = map[string]func(nproc int) *workload{
	"analytics": newAnalytics,
	"serve":     newServe,
	"etl":       newETL,
}

func main() {
	name := flag.String("workload", "", "analytics, serve or etl")
	seed := flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics from a traced run")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload analytics|serve|etl, --seconds >= 1 and --trace 0|1\n")
		os.Exit(2)
	}
	dir, err := filepath.Abs(filepath.Join(".bench_build", "perfbench", fmt.Sprintf("%s-%d", *name, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	rc := &runCtx{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, dir: dir,
		threads: runtime.NumCPU()}
	rc.setupTr = newTracer(time.Now())
	res, err := rc.execute(mk(rc.threads))
	_ = os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	rc.print(res)
	if !res.Correct {
		os.Exit(1)
	}
}

// execute sets the workload up setupRuns times, measures the last
// set-up database, and checks it.
func (rc *runCtx) execute(wl *workload) (*outcome, error) {
	var setups []setupInfo
	var db *quack.DB
	for i := 0; i < setupRuns; i++ {
		runtime.GC() // no garbage from the previous set-up inflates this one's peak
		d, info, err := wl.setup(rc, i)
		if err != nil {
			return nil, fmt.Errorf("setup %d: %w", i, err)
		}
		setups = append(setups, info)
		if i == 0 {
			if err := wl.reference(rc, d); err != nil {
				_ = d.Close()
				return nil, fmt.Errorf("reference: %w", err)
			}
		}
		if i < setupRuns-1 {
			if err := d.Close(); err != nil {
				return nil, err
			}
			continue
		}
		db = d
	}

	var w *window
	var err error
	if !rc.trace {
		w, err = rc.measure(wl, db, time.Duration(rc.seconds)*time.Second, false)
		if err == nil {
			err = wl.endToEnd(rc, w, setups)
		}
	} else {
		half := time.Duration(rc.seconds) * time.Second / 2
		var plain *window
		plain, err = rc.measure(wl, db, half, false)
		if err == nil {
			w, err = rc.measure(wl, db, half, true)
		}
		if err == nil {
			err = rc.layers(plain, w)
		}
	}
	if err != nil {
		_ = db.Close()
		return nil, err
	}
	if err := wl.finish(rc, db); err != nil {
		return nil, err
	}
	return &outcome{Correct: len(rc.wrong) == 0, Attempted: rc.attempted, Failed: rc.failed, Metrics: rc.rep.m}, nil
}

// measure runs the workload's clients for d and brackets the window
// with registry and runtime snapshots.
func (rc *runCtx) measure(wl *workload, db *quack.DB, d time.Duration, traced bool) (*window, error) {
	w := &window{}
	base := time.Now()
	for s := 0; s < wl.sessions; s++ {
		var tr *tracer
		if traced {
			tr = newTracer(base)
		}
		c := newClient(db, wl.threads, tr, &rc.opSeq)
		if traced {
			if err := c.enableProfiling(); err != nil {
				return nil, err
			}
			c.perOpDeltas = wl.sessions == 1
		}
		w.clients = append(w.clients, c)
	}
	runtime.GC()
	w.regBefore = db.Metrics()
	w.rtBefore = readRuntime()
	rss := startRSSSampler()
	w.start = time.Now()
	for _, c := range w.clients {
		c.lastEnd = w.start
	}
	wl.run(rc, db, w.clients, w.start.Add(d))
	w.wall = time.Since(w.start)
	var rssErr error
	w.rssPeaks, rssErr = rss.stop()
	w.rtAfter = readRuntime()
	w.regAfter = db.Metrics()
	if rssErr != nil {
		return nil, rssErr
	}
	for _, c := range w.clients {
		rc.attempted += c.ops
		rc.failed += c.failed
		rc.wrong = append(rc.wrong, c.wrong...)
		rc.errs = append(rc.errs, c.errs...)
	}
	if traced {
		// Op ids are unique across clients; span ids are per tracer, so
		// shift them into one id space when merging.
		for _, c := range w.clients {
			computeSelf(c.tr.spans)
			off := len(w.spans)
			for _, s := range c.tr.spans {
				s.ID += off
				if s.Parent >= 0 {
					s.Parent += off
				}
				w.spans = append(w.spans, s)
			}
		}
	}
	return w, nil
}

// clientSpread is max/min completed ops per client.
func clientSpread(w *window) float64 {
	lo, hi := w.clients[0].ops, w.clients[0].ops
	for _, c := range w.clients {
		lo, hi = min(lo, c.ops), max(hi, c.ops)
	}
	if lo == 0 {
		return 0
	}
	return float64(hi) / float64(lo)
}

// commonEndToEnd reports the metrics every workload defines the same way.
func (rc *runCtx) commonEndToEnd(w *window, setups []setupInfo) error {
	var durs []float64
	for _, s := range setups {
		durs = append(durs, s.dur.Seconds())
	}
	rc.rep.put("setup_s", median(durs), "s", fmt.Sprintf("median of %d set-ups", len(setups)))
	rc.rep.put("ops_per_s", w.opsPerSec(), "ops/s", fmt.Sprintf("%d ops in %.2fs, %d client(s)", w.ops(), w.wall.Seconds(), len(w.clients)))
	lat := w.latencies()
	for _, p := range []float64{0.50, 0.90, 0.99} {
		v, err := mustPercentile("latency", lat, p)
		if err != nil {
			return err
		}
		rc.rep.put(fmt.Sprintf("latency_p%d_ms", int(p*100+0.5)), v, "ms", fmt.Sprintf("n=%d", len(lat)))
	}
	for _, cl := range queryClasses {
		s := w.class(cl)
		v, err := mustPercentile("q."+cl, s, 0.5)
		if err != nil {
			return err
		}
		rc.rep.put("q."+cl+"_p50_ms", v, "ms", fmt.Sprintf("n=%d", len(s)))
	}
	rc.rep.put("peak_rss_mb", median(w.rssPeaks), "MiB", fmt.Sprintf("median VmHWM of %d %v intervals", len(w.rssPeaks), rssInterval))
	return nil
}

// queryClasses are the query shapes every workload times by class.
var queryClasses = []string{"agg", "join", "sort", "topn", "window", "export"}

// setupEndToEnd reports ingest, checkpoint and size metrics measured
// while setting up (analytics and serve, whose windows only read).
func (rc *runCtx) setupEndToEnd(setups []setupInfo) {
	var rate, ckpt, bpr []float64
	for _, s := range setups {
		rate = append(rate, float64(s.ingestRows)/s.ingestDur.Seconds())
		ckpt = append(ckpt, ms(s.ckpt))
		bpr = append(bpr, s.bytesPerRow)
	}
	note := fmt.Sprintf("median of %d set-ups", len(setups))
	rc.rep.put("ingest_rows_per_s", median(rate), "rows/s", note+", Appender")
	rc.rep.put("checkpoint_ms", median(ckpt), "ms", note)
	rc.rep.put("file_bytes_per_row", median(bpr), "bytes/row", "after the set-up checkpoint")
}

func (rc *runCtx) print(res *outcome) {
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%v nproc=%d\n", rc.workload, rc.seed, rc.seconds, rc.trace, rc.threads)
	for _, n := range rc.rep.names {
		m := rc.rep.m[n]
		fmt.Printf("  %-34s %14.4f %-10s %s\n", n, m.Value, m.Unit, rc.rep.notes[n])
	}
	fmt.Printf("  attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	for _, e := range rc.errs {
		fmt.Printf("  ERROR: %s\n", e)
	}
	for _, w := range rc.wrong {
		fmt.Printf("  WRONG: %s\n", w)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// fileBytesPerRow is the database file's size per live row.
func fileBytesPerRow(path string, rows int64) (float64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return float64(st.Size()) / float64(rows), nil
}
