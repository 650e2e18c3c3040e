package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/quack"
)

// serve: a dashboard backend (examples/dashboard's configuration: a
// memory limit and default session settings). nproc connections run a
// closed loop without think time over a checkpointed table; every query
// is short and selective — point lookups and clustered id ranges whose
// morsels zone maps mostly refute — so per-query fixed costs dominate.
const (
	svFactRows  = 1_000_000
	svDimRows   = 4096 // small lookup table: fact.d is uniform over its keys
	svRangeRows = 2000 // rows in each id range
	svInstances = 16   // parameter sets per range class
	svPoints    = 64   // distinct point-lookup ids
	svMemLimit  = 256 << 20
)

// serveShapes are the range classes; each takes (lo, hi) parameters.
var serveShapes = []struct {
	class, sql string
	ordered    bool
}{
	{"export", "SELECT id, region, qty, d FROM sales WHERE id BETWEEN ? AND ?", true},
	{"agg", "SELECT region, count(*), sum(qty), min(price), max(price) FROM sales WHERE id BETWEEN ? AND ? GROUP BY region ORDER BY region", true},
	{"join", "SELECT m.name, count(*), sum(s.qty), sum(m.w) FROM sales s JOIN dim m ON s.d = m.k WHERE s.id BETWEEN ? AND ? GROUP BY m.name ORDER BY m.name", true},
	{"sort", "SELECT id, price, qty FROM sales WHERE id BETWEEN ? AND ? ORDER BY price, id", true},
	{"topn", "SELECT id, price FROM sales WHERE id BETWEEN ? AND ? ORDER BY price DESC, id LIMIT 10", true},
	{"window", "SELECT id, rank() OVER (PARTITION BY region ORDER BY price, id) FROM sales WHERE id BETWEEN ? AND ?", false},
}

// serve's query instances: byClass[c][i] is instance i of class c,
// the last class being the point lookups.
type serve struct {
	byClass [][]*query
}

func newServe(nproc int) *workload {
	v := &serve{}
	return &workload{sessions: nproc, threads: nproc, setup: v.setup, reference: v.reference, run: v.run,
		endToEnd: func(rc *runCtx, w *window, setups []setupInfo) error {
			if err := rc.commonEndToEnd(w, setups); err != nil {
				return err
			}
			rc.setupEndToEnd(setups)
			return littleLaw(w)
		},
		finish: func(_ *runCtx, db *quack.DB) error { return db.Close() },
	}
}

func (v *serve) setup(rc *runCtx, i int) (*quack.DB, setupInfo, error) {
	if v.byClass == nil {
		rng := rc.rng(2)
		for _, sh := range serveShapes {
			var qs []*query
			for k := 0; k < svInstances; k++ {
				lo := rng.Int63n(svFactRows - svRangeRows)
				qs = append(qs, &query{class: sh.class, sql: sh.sql, ordered: sh.ordered, args: []any{lo, lo + svRangeRows - 1}})
			}
			v.byClass = append(v.byClass, qs)
		}
		var pts []*query
		for k := 0; k < svPoints; k++ {
			id := rng.Int63n(svFactRows)
			pts = append(pts, &query{class: "point", sql: pointSQL, ordered: true, args: []any{id}, want: pointRef(rc.seed, id, svDimRows)})
		}
		v.byClass = append(v.byClass, pts)
	}
	opts := []quack.Option{quack.WithThreads(rc.threads), quack.WithMemoryLimit(svMemLimit)}
	return rc.setupStar(i, svFactRows, svDimRows, opts, func(db *quack.DB) error {
		for _, qs := range v.byClass {
			if _, err := drain(db, qs[0].sql, qs[0].args...); err != nil {
				return err
			}
		}
		return nil
	})
}

// reference answers every range instance on one thread with zone maps
// and encoded execution off: full scans through the decode path. (The
// row-at-a-time engine would take ~0.3s per instance at this size.)
// Point lookups were answered by the generator.
func (v *serve) reference(_ *runCtx, db *quack.DB) error {
	conn := db.Conn()
	if _, err := conn.Exec("PRAGMA threads=1; PRAGMA zone_maps=0; PRAGMA encoded_exec=0"); err != nil {
		return err
	}
	for _, qs := range v.byClass[:len(serveShapes)] {
		for _, q := range qs {
			chunks, err := drain(conn, q.sql, q.args...)
			if err != nil {
				return fmt.Errorf("%s: %w", q.class, err)
			}
			q.want = fingerprintChunks(chunks, q.ordered)
		}
	}
	return nil
}

// run gives each client its own goroutine and session; an untraced run
// goes on past the deadline until the clients hold minLatencySamples
// between them. Each picks class and instance at random from its own
// seeded stream: a fixed class order
// would keep the same classes paired at the admission gate, and the
// pairing, not the query, would set each class's latency.
//
// Each client yields the processor before each query: the shortest gap a
// host could leave between two queries. Without it, a client re-enters
// admission before the session its last query woke has run, and barges
// ahead of it in about half of the queries; every class's latency then
// had two modes (own time, own time + the other session's query) and
// its median jumped between them from run to run (q.agg_p50_ms spread
// 40% across ten seeds). With any real work between queries, the woken
// session is admitted first.
func (v *serve) run(rc *runCtx, _ *quack.DB, clients []*client, deadline time.Time) {
	var wg sync.WaitGroup
	for s, c := range clients {
		wg.Add(1)
		go func(s int, c *client) {
			defer wg.Done()
			rng := rc.rng(100 + int64(s))
			for time.Now().Before(deadline) || (!rc.trace && len(c.lat)*len(clients) < minLatencySamples) {
				qs := v.byClass[rng.Intn(len(v.byClass))]
				runtime.Gosched()
				c.runQuery(qs[rng.Intn(len(qs))], true)
			}
		}(s, c)
	}
	wg.Wait()
}

// littleLaw fails the run when the window's throughput and latency
// contradict each other.
func littleLaw(w *window) error {
	var lats []time.Duration
	var gaps time.Duration
	for _, c := range w.clients {
		lats = append(lats, c.lat...)
		gaps += c.gapSum
	}
	n := len(lats)
	l, err := littleCheck(len(w.clients), n, w.wall, mean(lats), gaps/time.Duration(max(n, 1)))
	if err != nil {
		return err
	}
	fmt.Printf("little's law: %.1f ops/s × (mean latency + mean gap) = %.3f of %d clients\n", float64(n)/w.wall.Seconds(), l, len(w.clients))
	return nil
}
