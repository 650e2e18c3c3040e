package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"repro/quack"
)

// etl: the edge host that leaves the database one core and little RAM.
// One connection, engine threads = 1, a memory limit below the
// transform's working set, file-backed. Each cycle ingests a batch
// (Appender + COPY), cleans it (UPDATE, DELETE), runs small write
// transactions, checkpoints, transforms the batch with spilling
// operators, spot-checks it with point lookups, and drops an old batch
// so live data stays level. The run ends by reopening the file and
// checking every acknowledged write.
//
// The latency percentiles are over the cycle's queries (transforms and
// spot checks), not over the small write transactions: each commit is
// one WAL fsync, and on the VM this benchmark was sized on, fsync
// latency drifted so much that the transactions' p50/p90/p99 spread by
// 26%/48%/111% (interquartile range over median) across ten runs. The
// commits are reported per layer as txn.commit_us.
const (
	etlAppendRows = 48_000
	etlCSVRows    = 16_000
	etlCSVFiles   = 4      // pre-generated CSV batches, used in turn
	etlDimRows    = 16_384 // fact.d is uniform over the dim's keys
	etlMissingPct = 3      // rows whose d is the -999 marker
	etlDeleteQty  = 95     // the cleaning DELETE removes qty > this
	etlLive       = 2      // live batches after each cycle's DROP
	etlTxns       = 100    // small INSERT transactions per cycle
	etlChecks     = 5      // spot-check lookups after each transform, as analytics' drill-downs
	etlMemLimit   = 3 << 20
)

// batchTrack is what the generator says one batch table must hold
// after cleaning.
type batchTrack struct {
	missing, deleted             int64 // rows the UPDATE and DELETE must touch
	rows, qtySum, dSum, dNonNull int64
	wSum                         int64 // sum of dim.w over the rows' d
	maxPrice                     float64
	dVals                        map[int64]bool
	nullD                        bool
	regions                      map[string]bool
	seed                         uint64
	firstID                      int64 // first appended id
}

func newTrack(seed uint64) *batchTrack {
	return &batchTrack{dVals: map[int64]bool{}, regions: map[string]bool{}, seed: seed}
}

func (b *batchTrack) add(r factRow) {
	if r.d == missingD {
		b.missing++
	}
	if r.qty > etlDeleteQty {
		b.deleted++
		return
	}
	b.rows++
	b.qtySum += r.qty
	b.regions[r.region] = true
	b.maxPrice = max(b.maxPrice, r.price)
	if r.d == missingD {
		b.nullD = true
		return
	}
	b.dSum += r.d
	b.dNonNull++
	b.wSum += genDimW(b.seed, r.d)
	b.dVals[r.d] = true
}

type etlState struct {
	path      string
	opts      []quack.Option
	csv       []string
	csvRows   [][]factRow
	next      int
	live      map[int]*batchTrack
	dropped   []int
	auditRows int64
	auditSum  int64
	walRows   int64 // rows written since the last checkpoint
	bytesRow  float64
	rng       *rand.Rand // spot-check ids
}

// etl holds the state of the latest set-up, the one measured.
type etl struct {
	cur *etlState
}

func newETL(int) *workload {
	x := &etl{}
	return &workload{sessions: 1, threads: 1, setup: x.setup,
		reference: func(*runCtx, *quack.DB) error { return nil }, // checks come from the generator
		run: func(rc *runCtx, db *quack.DB, clients []*client, deadline time.Time) {
			for cycles := 0; rc.more(clients[0], cycles, deadline); cycles++ {
				x.cur.cycle(rc, clients[0], db)
			}
		},
		endToEnd: x.endToEnd,
		finish: func(rc *runCtx, db *quack.DB) error {
			if err := db.Close(); err != nil {
				return err
			}
			rc.wrong = append(rc.wrong, x.cur.verifyDurable()...)
			return nil
		},
	}
}

// setup creates the dim and audit tables, writes the CSV batches and
// runs etlLive warm-up cycles, so the measured cycles each drop as much
// as they add.
func (x *etl) setup(rc *runCtx, i int) (*quack.DB, setupInfo, error) {
	e := &etlState{path: rc.path(fmt.Sprintf("etl-%d.qdb", i)), live: map[int]*batchTrack{}, rng: rc.rng(3),
		opts: []quack.Option{quack.WithThreads(1), quack.WithMemoryLimit(etlMemLimit), quack.WithTmpDir(rc.dir)}}
	x.cur = e
	_ = os.Remove(e.path)
	_ = os.Remove(e.path + ".wal")
	var info setupInfo
	t0 := time.Now()
	root := rc.setupSpan(-1, "setup")
	defer rc.setupTr.end(root)
	db, err := rc.open(root, e.path, e.opts)
	if err != nil {
		return nil, info, err
	}
	fail := func(err error) (*quack.DB, setupInfo, error) {
		_ = db.Close()
		return nil, info, err
	}
	if _, err := db.Exec("CREATE TABLE dim (k BIGINT, name VARCHAR, w BIGINT); CREATE TABLE audit (k BIGINT, j BIGINT, v BIGINT)"); err != nil {
		return fail(err)
	}
	s := rc.setupSpan(root, "quack.append")
	dim, err := appendDim(db, rc.seed, etlDimRows)
	rc.setupTr.end(s)
	rc.setupTr.annotate(s, "rows", dim.rows)
	if err != nil {
		return fail(err)
	}
	for f := 0; f < etlCSVFiles; f++ {
		path := rc.path(fmt.Sprintf("etl-%d-batch%d.csv", i, f))
		var rows []factRow
		keep := func(r factRow) { rows = append(rows, r) }
		if err := writeFactCSV(path, rc.seed^0xC5C5, int64(1e12)+int64(f)*etlCSVRows, etlCSVRows, etlDimRows, etlMissingPct, keep); err != nil {
			return fail(err)
		}
		e.csv = append(e.csv, path)
		e.csvRows = append(e.csvRows, rows)
	}
	warm := newClient(db, 1, nil, &rc.opSeq)
	for k := 0; k < etlLive; k++ {
		e.cycle(rc, warm, db)
	}
	if warm.failed > 0 || len(warm.wrong) > 0 {
		return fail(fmt.Errorf("warm-up: %s", strings.Join(append(warm.errs, warm.wrong...), "; ")))
	}
	info.dur = time.Since(t0)
	return db, info, nil
}

func (x *etl) endToEnd(rc *runCtx, w *window, setups []setupInfo) error {
	if err := rc.commonEndToEnd(w, setups); err != nil {
		return err
	}
	var rows int64
	var dur time.Duration
	for _, cl := range []struct {
		name string
		rows int64
	}{{"append", etlAppendRows}, {"copy", etlCSVRows}} {
		for _, d := range w.class(cl.name) {
			rows += cl.rows
			dur += d
		}
	}
	rc.rep.put("ingest_rows_per_s", float64(rows)/dur.Seconds(), "rows/s", fmt.Sprintf("%d rows, Appender + COPY", rows))
	ck := w.class("checkpoint")
	v, err := mustPercentile("checkpoint", ck, 0.5)
	if err != nil {
		return err
	}
	rc.rep.put("checkpoint_ms", v, "ms", fmt.Sprintf("n=%d", len(ck)))
	rc.rep.put("file_bytes_per_row", x.cur.bytesRow, "bytes/row", "after the last checkpoint")
	return nil
}

// liveRows is how many rows the database holds right now.
func (e *etlState) liveRows() int64 {
	n := int64(etlDimRows) + e.auditRows
	for _, b := range e.live {
		n += b.rows
	}
	return n
}

// cycle runs one ETL cycle as client c.
func (e *etlState) cycle(rc *runCtx, c *client, db *quack.DB) {
	k := e.next
	e.next++
	tbl := fmt.Sprintf("b%d", k)
	bt := newTrack(rc.seed)
	bt.firstID = int64(k) * 1_000_000
	if _, ok := c.exec("ddl", "quack.exec", "CREATE TABLE "+tbl+" "+factDDL); !ok {
		return
	}
	e.live[k] = bt

	// 1-2. Ingest: Appender bulk load, then COPY of a CSV batch.
	c.do("append", "quack.append", "", nil, false, func(_ int64, s int) error {
		ld, err := appendFact(db, tbl, rc.seed, bt.firstID, etlAppendRows, etlDimRows, etlMissingPct, bt.add)
		c.tr.annotate(s, "rows", ld.rows)
		return err
	})
	f := k % etlCSVFiles
	if n, ok := c.exec("copy", "csvio.copy", fmt.Sprintf("COPY %s FROM '%s'", tbl, e.csv[f])); ok {
		for _, r := range e.csvRows[f] {
			bt.add(r)
		}
		if n != etlCSVRows {
			c.mismatch("COPY %s: %d rows, want %d", tbl, n, etlCSVRows)
		}
	}
	// 3. Cleaning.
	if n, ok := c.exec("update", "quack.exec", "UPDATE "+tbl+" SET d = NULL WHERE d = -999"); ok && n != bt.missing {
		c.mismatch("UPDATE %s: %d rows, want %d", tbl, n, bt.missing)
	}
	if n, ok := c.exec("delete", "quack.exec", fmt.Sprintf("DELETE FROM %s WHERE qty > %d", tbl, etlDeleteQty)); ok && n != bt.deleted {
		c.mismatch("DELETE %s: %d rows, want %d", tbl, n, bt.deleted)
	}
	e.walRows += etlAppendRows + etlCSVRows + bt.missing + bt.deleted

	// 4. Small explicit write transactions.
	const insertSQL = "INSERT INTO audit VALUES (?, ?, ?)"
	for j := 0; j < etlTxns; j++ {
		v := int64(k)*1000 + int64(j)
		args := []any{int64(k), int64(j), v}
		ok := c.do("txn", "quack.tx", insertSQL, args, false, func(op int64, s int) error {
			tx, err := db.Begin()
			if err != nil {
				return err
			}
			es := c.tr.begin(op, s, "quack.exec")
			_, err = tx.Exec(insertSQL, args...)
			c.tr.end(es)
			if err != nil {
				_ = tx.Rollback()
				return err
			}
			cs := c.tr.begin(op, s, "txn.commit")
			err = tx.Commit()
			c.tr.end(cs)
			return err
		})
		if ok {
			e.auditRows++
			e.auditSum += v
			e.walRows++
		}
	}

	// 5. Checkpoint.
	if c.do("checkpoint", "storage.checkpoint", "", nil, false, func(_ int64, s int) error {
		before := storageBefore(db)
		err := db.Checkpoint()
		annotateCheckpoint(c.tr, s, db, before, e.walRows)
		return err
	}) {
		e.walRows = 0
		if bpr, err := fileBytesPerRow(e.path, e.liveRows()); err == nil {
			e.bytesRow = bpr
		}
	}

	// 6. Transform the batch under the memory limit.
	e.transform(c, tbl, bt)

	// 7. Age out the oldest live batch.
	if old := k - etlLive; old >= 0 {
		if _, ok := c.exec("drop", "quack.exec", fmt.Sprintf("DROP TABLE b%d", old)); ok {
			delete(e.live, old)
			e.dropped = append(e.dropped, old)
		}
	}
}

// transform runs the batch's analytical steps, checking each result
// against what the generator says the batch holds.
func (e *etlState) transform(c *client, tbl string, bt *batchTrack) {
	run := func(class, sqlText string, verify func(n int64, each func(func(ch *quack.Chunk, r int))) error) {
		defer e.spotCheck(c, tbl, bt)
		chunks, ok := c.timeQuery(class, sqlText, nil, true)
		if !ok {
			return
		}
		var n int64
		for _, ch := range chunks {
			n += int64(ch.Len())
		}
		// Rows are read from the column slices, not boxed: boxing every
		// value would add the benchmark's own garbage to the GC the
		// measured queries run under.
		each := func(fn func(ch *quack.Chunk, r int)) {
			for _, ch := range chunks {
				for r := 0; r < ch.Len(); r++ {
					fn(ch, r)
				}
			}
		}
		if err := verify(n, each); err != nil {
			c.mismatch("%s on %s: %v", class, tbl, err)
		}
	}
	want := func(what string, got, want int64) error {
		if got != want {
			return fmt.Errorf("%s = %d, want %d", what, got, want)
		}
		return nil
	}
	run("agg", "SELECT d, count(*), sum(qty) FROM "+tbl+" GROUP BY d", func(n int64, each func(func(*quack.Chunk, int))) error {
		var cnt, q int64
		each(func(ch *quack.Chunk, r int) {
			cnt += intAt(ch, 1, r)
			q += intAt(ch, 2, r)
		})
		groups := int64(len(bt.dVals))
		if bt.nullD {
			groups++
		}
		return firstErr(want("groups", n, groups), want("sum(count)", cnt, bt.rows), want("sum(qty)", q, bt.qtySum))
	})
	run("sort", "SELECT id, price, qty FROM "+tbl+" ORDER BY price, id", func(n int64, each func(func(*quack.Chunk, int))) error {
		var q int64
		var err error
		prevPrice, prevID := math.Inf(-1), int64(math.MinInt64)
		each(func(ch *quack.Chunk, r int) {
			id, price := intAt(ch, 0, r), ch.Cols[1].F64[r]
			q += intAt(ch, 2, r)
			if err == nil && (price < prevPrice || price == prevPrice && id < prevID) {
				err = fmt.Errorf("id %d out of order", id)
			}
			prevPrice, prevID = price, id
		})
		return firstErr(err, want("rows", n, bt.rows), want("sum(qty)", q, bt.qtySum))
	})
	run("join", "SELECT count(*), sum(m.w) FROM "+tbl+" f JOIN dim m ON f.d = m.k", func(n int64, each func(func(*quack.Chunk, int))) error {
		if n != 1 {
			return fmt.Errorf("%d rows, want 1", n)
		}
		var err error
		each(func(ch *quack.Chunk, r int) {
			err = firstErr(want("count", intAt(ch, 0, r), bt.dNonNull), want("sum(w)", intAt(ch, 1, r), bt.wSum))
		})
		return err
	})
	run("topn", "SELECT id, price FROM "+tbl+" ORDER BY price DESC, id LIMIT 100", func(n int64, each func(func(*quack.Chunk, int))) error {
		var err error
		first, prev := true, math.Inf(1)
		each(func(ch *quack.Chunk, r int) {
			price := ch.Cols[1].F64[r]
			if first && price != bt.maxPrice {
				err = fmt.Errorf("max price %v, want %v", price, bt.maxPrice)
			}
			if err == nil && price > prev {
				err = fmt.Errorf("price %v out of order", price)
			}
			first, prev = false, price
		})
		return firstErr(want("rows", n, min(100, bt.rows)), err)
	})
	run("window", "SELECT region, rank() OVER (PARTITION BY region ORDER BY price, id) FROM "+tbl, func(n int64, each func(func(*quack.Chunk, int))) error {
		var firsts int64
		each(func(ch *quack.Chunk, r int) {
			if intAt(ch, 1, r) == 1 {
				firsts++
			}
		})
		return firstErr(want("rows", n, bt.rows), want("rank-1 rows", firsts, int64(len(bt.regions))))
	})
	run("export", "SELECT id, qty, d FROM "+tbl, func(n int64, each func(func(*quack.Chunk, int))) error {
		var q, d, dn int64
		each(func(ch *quack.Chunk, r int) {
			q += intAt(ch, 1, r)
			if !ch.Cols[2].IsNull(r) {
				d += intAt(ch, 2, r)
				dn++
			}
		})
		return firstErr(want("rows", n, bt.rows), want("sum(qty)", q, bt.qtySum),
			want("sum(d)", d, bt.dSum), want("count(d)", dn, bt.dNonNull))
	})
}

// intAt reads an INTEGER or BIGINT cell.
func intAt(ch *quack.Chunk, col, r int) int64 {
	if v := ch.Cols[col]; v.Type == quack.Integer {
		return int64(v.I32[r])
	}
	return ch.Cols[col].I64[r]
}

// spotCheck looks up etlChecks random appended rows of the batch by id
// and checks each against the generator, after cleaning: the row is gone
// if qty > etlDeleteQty, and its d is NULL if it was the marker.
func (e *etlState) spotCheck(c *client, tbl string, bt *batchTrack) {
	for i := 0; i < etlChecks; i++ {
		id := bt.firstID + e.rng.Int63n(etlAppendRows)
		chunks, ok := c.timeQuery("point", "SELECT id, qty, d FROM "+tbl+" WHERE id = ?", []any{id}, true)
		if !ok {
			continue
		}
		r := genFact(bt.seed, id, etlDimRows, etlMissingPct)
		var want [][]quack.Value
		if r.qty <= etlDeleteQty {
			d := quack.Value{Type: quack.BigInt, I64: r.d}
			if r.d == missingD {
				d = quack.Value{Type: quack.BigInt, Null: true}
			}
			want = [][]quack.Value{{{Type: quack.BigInt, I64: id}, {Type: quack.BigInt, I64: r.qty}, d}}
		}
		if got, w := fingerprintChunks(chunks, true), fingerprintRows(want, true); got != w {
			c.mismatch("point lookup %s id=%d: got %d rows (hash %x), want %d rows (hash %x)", tbl, id, got.rows, got.hash, w.rows, w.hash)
		}
	}
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// verifyDurable reopens the closed database and checks that every
// acknowledged write survived and every dropped batch is gone.
func (e *etlState) verifyDurable() []string {
	db, err := quack.Open(e.path, e.opts...)
	if err != nil {
		return []string{fmt.Sprintf("reopen: %v", err)}
	}
	defer db.Close()
	var wrong []string
	check := func(what, sqlText string, want ...int64) {
		chunks, err := drain(db, sqlText)
		if err != nil || len(chunks) != 1 || chunks[0].Len() != 1 {
			wrong = append(wrong, fmt.Sprintf("after reopen, %s: %v", what, err))
			return
		}
		row := chunks[0].Row(0)
		for i, w := range want {
			if got := row[i].I64; got != w || (row[i].Null && w != 0) {
				wrong = append(wrong, fmt.Sprintf("after reopen, %s column %d = %v, want %d", what, i, row[i], w))
			}
		}
	}
	live := make([]int, 0, len(e.live))
	for k := range e.live {
		live = append(live, k)
	}
	sort.Ints(live)
	for _, k := range live {
		bt := e.live[k]
		check(fmt.Sprintf("b%d", k), fmt.Sprintf("SELECT count(*), sum(qty), sum(d), count(d) FROM b%d", k), bt.rows, bt.qtySum, bt.dSum, bt.dNonNull)
	}
	for _, k := range e.dropped {
		if _, err := db.Query(fmt.Sprintf("SELECT count(*) FROM b%d", k)); err == nil {
			wrong = append(wrong, fmt.Sprintf("after reopen, dropped batch b%d still exists", k))
		}
	}
	check("audit", "SELECT count(*), sum(v) FROM audit", e.auditRows, e.auditSum)
	return wrong
}
