package main

import (
	"fmt"
	"os"
	"time"

	"repro/quack"
)

// setupSpan opens a span on the set-up tracer under parent.
func (rc *runCtx) setupSpan(parent int, name string) int {
	op := rc.opSeq.Add(1)
	if parent >= 0 {
		op = rc.setupTr.spans[parent].Op
	}
	return rc.setupTr.begin(op, parent, name)
}

// open opens the database at path, timed as core.open.
func (rc *runCtx) open(parent int, path string, opts []quack.Option) (*quack.DB, error) {
	s := rc.setupSpan(parent, "core.open")
	db, err := quack.Open(path, opts...)
	rc.setupTr.end(s)
	return db, err
}

// checkpointFigures reads the storage figures a checkpoint span carries.
type checkpointFigures struct {
	walBytes      int64
	blocksWritten int64
}

func storageBefore(db *quack.DB) checkpointFigures {
	_, written := db.Internal().Store().Stats()
	return checkpointFigures{walBytes: db.Metrics()["wal_bytes"], blocksWritten: written}
}

// annotateCheckpoint records on span s what the checkpoint since
// before wrote: the WAL it retired (and the rows logged into it), the
// blocks it wrote and the free list it left.
func annotateCheckpoint(tr *tracer, s int, db *quack.DB, before checkpointFigures, walRows int64) {
	store := db.Internal().Store()
	_, written := store.Stats()
	tr.annotate(s, "wal_bytes", before.walBytes)
	tr.annotate(s, "wal_rows", walRows)
	tr.annotate(s, "blocks_written", written-before.blocksWritten)
	tr.annotate(s, "free_blocks", int64(store.FreeCount()))
}

// setupStar builds the fact and dim tables of analytics and serve in a
// fresh file, checkpoints them, reopens the file cold and warms it up.
func (rc *runCtx) setupStar(i int, factRows, dimRows int64, opts []quack.Option, warm func(*quack.DB) error) (*quack.DB, setupInfo, error) {
	path := rc.path(fmt.Sprintf("%s-%d.qdb", rc.workload, i))
	_ = os.Remove(path)
	_ = os.Remove(path + ".wal")
	var info setupInfo
	t0 := time.Now()
	root := rc.setupSpan(-1, "setup")
	defer rc.setupTr.end(root)
	db, err := rc.open(root, path, opts)
	if err != nil {
		return nil, info, err
	}
	fail := func(err error) (*quack.DB, setupInfo, error) {
		_ = db.Close()
		return nil, info, err
	}
	if _, err := db.Exec("CREATE TABLE sales " + factDDL + "; CREATE TABLE dim (k BIGINT, name VARCHAR, w BIGINT)"); err != nil {
		return fail(err)
	}
	s := rc.setupSpan(root, "quack.append")
	fact, err := appendFact(db, "sales", rc.seed, 0, factRows, dimRows, 0, nil)
	if err != nil {
		return fail(err)
	}
	dim, err := appendDim(db, rc.seed, dimRows)
	if err != nil {
		return fail(err)
	}
	rc.setupTr.end(s)
	rc.setupTr.annotate(s, "rows", fact.rows+dim.rows)
	info.ingestRows, info.ingestDur = fact.rows+dim.rows, fact.dur+dim.dur

	s = rc.setupSpan(root, "storage.checkpoint")
	before := storageBefore(db)
	tc := time.Now()
	if err := db.Checkpoint(); err != nil {
		return fail(err)
	}
	info.ckpt = time.Since(tc)
	rc.setupTr.end(s)
	annotateCheckpoint(rc.setupTr, s, db, before, fact.rows+dim.rows)
	if info.bytesPerRow, err = fileBytesPerRow(path, factRows+dimRows); err != nil {
		return fail(err)
	}
	if err := db.Close(); err != nil {
		return nil, info, err
	}

	if db, err = rc.open(root, path, opts); err != nil {
		return nil, info, err
	}
	s = rc.setupSpan(root, "bench.warmup")
	err = warm(db)
	rc.setupTr.end(s)
	if err != nil {
		return fail(err)
	}
	info.dur = time.Since(t0)
	return db, info, nil
}

// drain runs a query and drains it through the chunk API.
func drain(q interface {
	Query(string, ...any) (*quack.Rows, error)
}, sqlText string, args ...any) ([]*quack.Chunk, error) {
	rows, err := q.Query(sqlText, args...)
	if err != nil {
		return nil, err
	}
	var chunks []*quack.Chunk
	for ch := rows.NextChunk(); ch != nil; ch = rows.NextChunk() {
		chunks = append(chunks, ch)
	}
	return chunks, nil
}

// pointRef is the fingerprint of `SELECT id, region, qty, price, d
// FROM sales WHERE id = ?`, computed from the generator alone.
func pointRef(seed uint64, id, dDomain int64) fingerprint {
	r := genFact(seed, id, dDomain, 0)
	vals := []quack.Value{
		{Type: quack.BigInt, I64: r.id},
		{Type: quack.Varchar, Str: r.region},
		{Type: quack.BigInt, I64: r.qty},
		{Type: quack.Double, F64: r.price},
		{Type: quack.BigInt, I64: r.d},
	}
	return fingerprintRows([][]quack.Value{vals}, true)
}

const pointSQL = "SELECT id, region, qty, price, d FROM sales WHERE id = ?"
