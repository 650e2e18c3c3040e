package main

import (
	"fmt"
	"time"

	"repro/quack"
)

// analytics: interactive OLAP over local data (paper §2). One
// connection, engine threads = nproc, no memory limit, a checkpointed
// file-backed fact table and a keyed dim table reopened cold. Each cycle
// runs one heavy query per class; after each heavy query the "user"
// drills down with point lookups, so the run also has enough latency
// samples to carry a p99. With five lookups per heavy query, heavy
// queries are a sixth of all latency samples: p90 then falls inside the
// sort/join/window band and p99 inside topn, not on the edge between
// two classes, where it would jump between them from run to run.
const (
	anFactRows = 250_000
	anDimRows  = 50_000 // keys 0..anDimRows-1; fact.d is uniform over them
	anDrills   = 5      // point lookups after each heavy query (see below)
	anDrillIDs = 64     // distinct drill-down ids per run
)

type analytics struct {
	heavy  []*query
	drills []*query
}

func newAnalytics(nproc int) *workload {
	a := &analytics{heavy: []*query{
		{class: "agg", ordered: true, sql: "SELECT region, count(*), sum(qty), min(price), max(price), sum(d) FROM sales GROUP BY region ORDER BY region"},
		{class: "join", ordered: true, sql: "SELECT m.name, count(*), sum(s.qty), sum(m.w) FROM sales s JOIN dim m ON s.d = m.k GROUP BY m.name ORDER BY m.name"},
		{class: "sort", ordered: true, sql: "SELECT id, price, qty FROM sales WHERE qty <= 20 ORDER BY price, id"},
		{class: "topn", ordered: true, sql: "SELECT id, region, price FROM sales WHERE qty <= 50 ORDER BY price DESC, id LIMIT 100"},
		{class: "window", sql: "SELECT id, region, rank() OVER (PARTITION BY region ORDER BY price, id) FROM sales WHERE qty <= 20"},
		{class: "export", ordered: true, sql: fmt.Sprintf("SELECT id, region, qty, price, d FROM sales WHERE id < %d", anFactRows/2)},
	}}
	return &workload{sessions: 1, threads: nproc, setup: a.setup, reference: a.reference, run: a.run,
		endToEnd: func(rc *runCtx, w *window, setups []setupInfo) error {
			if err := rc.commonEndToEnd(w, setups); err != nil {
				return err
			}
			rc.setupEndToEnd(setups)
			return nil
		},
		finish: func(_ *runCtx, db *quack.DB) error { return db.Close() },
	}
}

func (a *analytics) setup(rc *runCtx, i int) (*quack.DB, setupInfo, error) {
	if a.drills == nil {
		rng := rc.rng(1)
		for k := 0; k < anDrillIDs; k++ {
			id := rng.Int63n(anFactRows)
			a.drills = append(a.drills, &query{class: "point", ordered: true, sql: pointSQL,
				args: []any{id}, want: pointRef(rc.seed, id, anDimRows)})
		}
	}
	opts := []quack.Option{quack.WithThreads(rc.threads)}
	return rc.setupStar(i, anFactRows, anDimRows, opts, func(db *quack.DB) error {
		// One untimed cycle: loads every column the queries touch.
		for _, q := range a.heavy {
			if _, err := drain(db, q.sql); err != nil {
				return err
			}
		}
		for _, q := range a.drills[:anDrills] {
			if _, err := drain(db, q.sql, q.args...); err != nil {
				return err
			}
		}
		return nil
	})
}

// reference answers every heavy query through an independent path: the
// row-at-a-time engine for every shape but the join, and for the join
// the out-of-core merge join on one thread instead of the hash join the
// timed runs use. Drill-downs were answered by the generator.
func (a *analytics) reference(_ *runCtx, db *quack.DB) error {
	sess := db.Internal().NewSession()
	for _, q := range a.heavy {
		if q.class == "join" {
			tx, err := db.Begin()
			if err != nil {
				return err
			}
			tx.SetJoinStrategy(quack.JoinMerge)
			tx.SetThreads(1)
			chunks, err := drain(tx, q.sql)
			_ = tx.Rollback()
			if err != nil {
				return err
			}
			q.want = fingerprintChunks(chunks, q.ordered)
			continue
		}
		rows, err := sess.ExecuteRowEngine(q.sql)
		if err != nil {
			return fmt.Errorf("%s: %w", q.class, err)
		}
		q.want = fingerprintRows(rows, q.ordered)
	}
	return nil
}

func (a *analytics) run(rc *runCtx, _ *quack.DB, clients []*client, deadline time.Time) {
	c := clients[0]
	next := 0
	for cycles := 0; rc.more(c, cycles, deadline); cycles++ {
		for _, q := range a.heavy {
			c.runQuery(q, true)
			for k := 0; k < anDrills; k++ {
				c.runQuery(a.drills[next%len(a.drills)], true)
				next++
			}
		}
	}
}
