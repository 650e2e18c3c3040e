package exec

import (
	"sync"
	"time"

	"repro/internal/sched"
	"repro/internal/table"
	"repro/internal/vector"
)

// parResult is one processed claim: the run of morsels [seq, seq+n) —
// zone-refuted ones plus at most one survivor — and the chunks the
// pipeline emitted for it (empty when every row was filtered out).
type parResult struct {
	seq, n int
	chunks []*vector.Chunk
	err    error
}

// parScanOp executes a morsel-driven pipeline on the engine-wide
// scheduler. The operator keeps Threads worker states (a morsel scanner
// plus private stage instances each); every state advances by short
// re-submitting steps — claim a morsel run, run the stages, post the
// result — so the actual goroutines belong to the shared pool and a
// query never spawns its own. One worker state is the single-threaded
// plan; more never change the output, because Next reassembles the
// chunks in morsel order. A claim takes every zone-refuted morsel up to
// the next survivor, so a selective scan costs a step per surviving
// morsel, not per segment.
//
// Flow control: a worker state takes a reorder-buffer ticket before
// claiming a run and the merger returns it when that run is emitted. A
// state that finds no ticket parks (costing the pool nothing) and is
// re-submitted by the consumer when it frees one; the results channel's
// capacity equals the ticket window, so a step's send never blocks a
// pool worker.
//
// The operator has a second execution mode for pipeline breakers:
// consume() pushes every worker state's chunks straight into a
// worker-local sink (a partial aggregate, a sorter or a join build
// partition) without the ordering barrier.
type parScanOp struct {
	spec  *pipelineSpec
	extra []stageFactory // stages attached by a parent (join probe)

	src     *table.MorselSource
	results chan parResult

	mu        sync.Mutex
	idle      *sync.Cond    // signalled when active reaches zero
	parked    []*scanWorker // states waiting for a ticket
	active    int           // states queued or running on the pool
	cancelled bool

	closeOnce sync.Once

	// buf is the shared ordered-merge state machine: workers take a
	// ticket before claiming a morsel and the merger returns it when
	// that morsel is emitted, so the reorder buffer holds at most its
	// window depth in morsels even under scheduling skew.
	buf *reorderBuf

	// maxWorkers, when >0, caps the worker-state count below
	// ctx.Threads — the aggregation budget floor clamps through it.
	maxWorkers int

	nmorsel int
	failed  error
	started bool
}

// scanWorker is one worker state: a morsel scanner and private stage
// instances. Its step method is the unit the scheduler runs.
type scanWorker struct {
	op     *parScanOp
	ctx    *Context
	ms     *table.MorselScanner
	stages []stage
	q      *sched.Query
	out    []*vector.Chunk // the current claim's output chunks
	// task and collect are w.step and w.collectOut bound once, so a step
	// allocates nothing beyond the chunks it emits.
	task    sched.Task
	collect func(int, *vector.Chunk) error
}

func (w *scanWorker) collectOut(_ int, c *vector.Chunk) error {
	w.out = append(w.out, c)
	return nil
}

func newParScanOp(spec *pipelineSpec) *parScanOp { return &parScanOp{spec: spec} }

// attachStages appends per-worker stages to the pipeline (the hash join
// attaches its probe stage). Must be called before the first Next or
// consume — workers snapshot their stages when they start.
func (p *parScanOp) attachStages(f ...stageFactory) { p.extra = append(p.extra, f...) }

// workerCount sizes the worker state: no more states than morsels, at
// least 1, capped by maxWorkers when a budget clamp is in force.
func (p *parScanOp) workerCount(ctx *Context) int {
	w := ctx.Threads
	if p.maxWorkers > 0 && w > p.maxWorkers {
		w = p.maxWorkers
	}
	if w > p.nmorsel {
		w = p.nmorsel
	}
	if w < 1 {
		w = 1
	}
	return w
}

func (p *parScanOp) workerStages() []stage {
	stages := p.spec.newStages()
	for _, f := range p.extra {
		stages = append(stages, f())
	}
	return stages
}

// Open acquires the morsel source (pinning the scanned columns, which
// can fail under a memory budget). Workers start lazily on the first
// Next, so parents may still attach stages after a successful Open.
func (p *parScanOp) Open(ctx *Context) error {
	if p.src != nil {
		return nil // reopened by a join fallback; keep the source
	}
	src, err := p.spec.scan.Table.Data.NewMorselSource(ctx.Txn, scanOptions(ctx, p.spec.scan))
	if err != nil {
		return err
	}
	p.src = src
	p.nmorsel = src.NumMorsels()
	return nil
}

// start submits the worker states feeding the ordered merge.
func (p *parScanOp) start(ctx *Context) {
	p.started = true
	workers := p.workerCount(ctx)
	win := workers * 4
	p.results = make(chan parResult, win) // cap = tickets: sends never block
	p.buf = newReorderBuf(win)
	p.idle = sync.NewCond(&p.mu)
	q := ctx.queryTasks()
	p.active = workers
	for i := 0; i < workers; i++ {
		w := &scanWorker{op: p, ctx: ctx, ms: p.src.Worker(), stages: p.workerStages(), q: q}
		w.task, w.collect = w.step, w.collectOut
		q.Submit(w.task)
	}
}

// exitLocked retires one worker state. Caller holds p.mu.
func (p *parScanOp) exitLocked() {
	p.active--
	if p.active == 0 {
		p.idle.Broadcast()
	}
}

// step processes one morsel run and re-submits itself. It never blocks
// on the pool: a missing ticket parks the state instead, and the results
// channel always has room for ticket holders.
//
//quack:hotpath
func (w *scanWorker) step() {
	p := w.op
	p.mu.Lock()
	if p.cancelled {
		p.exitLocked()
		p.mu.Unlock()
		return
	}
	if !p.buf.tryAcquire() {
		p.parked = append(p.parked, w)
		p.exitLocked()
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	w.out = nil
	seq, n, err := p.claim(w.ctx, w.ms, w.stages, w.collect)
	if n == 0 && err == nil {
		p.mu.Lock()
		p.buf.release() // no morsel claimed; return the ticket
		p.exitLocked()
		p.mu.Unlock()
		return
	}
	p.results <- parResult{seq: seq, n: n, chunks: w.out, err: err}
	if err != nil {
		p.mu.Lock()
		p.exitLocked()
		p.mu.Unlock()
		return
	}
	w.q.Submit(w.task)
}

// claim takes one morsel run and threads its survivor, if any, through
// the stages, handing every non-empty output chunk to sink with the
// survivor's sequence number. It returns the run's first sequence and
// length (0: the source is exhausted) and books the claim into the scan
// node's profile slot.
//
//quack:hotpath
func (p *parScanOp) claim(ctx *Context, ms *table.MorselScanner, stages []stage, sink func(seq int, c *vector.Chunk) error) (first, n int, err error) {
	slot := p.spec.scanSlot
	var t0 time.Time
	if slot != nil {
		t0 = time.Now()
	}
	first, n, chunk, err := ms.Claim()
	if n == 0 && err == nil {
		return first, 0, nil
	}
	if slot != nil {
		slot.Morsels.Add(int64(n))
		if chunk != nil && p.spec.countScanRows {
			slot.Rows.Add(int64(chunk.Len()))
			slot.Chunks.Add(1)
		}
	}
	if err == nil && chunk != nil {
		seq := first + n - 1
		err = runStages(ctx, stages, chunk, func(c *vector.Chunk) error {
			if c.Len() == 0 {
				return nil
			}
			return sink(seq, c)
		})
	}
	if slot != nil {
		slot.BusyNs.Add(time.Since(t0).Nanoseconds())
	}
	return first, n, err
}

// unparkOne re-submits one parked worker state after the consumer freed
// a ticket. Spurious unparks are harmless: the state parks again.
func (p *parScanOp) unparkOne() {
	p.mu.Lock()
	if !p.cancelled && len(p.parked) > 0 {
		w := p.parked[len(p.parked)-1]
		p.parked = p.parked[:len(p.parked)-1]
		p.active++
		w.q.Submit(w.task)
	}
	p.mu.Unlock()
}

// Next implements Operator: it emits the workers' chunks in morsel
// order. Out-of-order results are parked in a bounded reorder buffer
// (claims require tickets, so at most the window depth in morsels is
// ever buffered).
func (p *parScanOp) Next(ctx *Context) (*vector.Chunk, error) {
	if p.failed != nil {
		return nil, p.failed
	}
	if !p.started {
		p.start(ctx)
	}
	for {
		if out, ok := p.buf.pop(); ok {
			return out, nil
		}
		if p.buf.seq() >= p.nmorsel {
			return nil, nil
		}
		if p.buf.advance() { // freed a ticket: let a parked state claim it
			p.unparkOne()
			continue
		}
		res := <-p.results
		if res.err != nil {
			p.failed = res.err
			return nil, res.err
		}
		p.buf.park(res.seq, res.n, res.chunks)
	}
}

// Close stops the worker states and releases the morsel source. Queued
// steps observe the cancel flag and retire; parked states are dropped
// without costing the pool a slot.
func (p *parScanOp) Close(ctx *Context) {
	p.closeOnce.Do(func() {
		if p.started {
			p.mu.Lock()
			p.cancelled = true
			p.parked = nil
			for p.active > 0 {
				p.idle.Wait()
			}
			p.mu.Unlock()
		}
		if p.src != nil {
			p.src.Close()
		}
		if p.buf != nil {
			p.buf.drop()
		}
	})
}

// consume runs the pipeline in sink mode (the breakerInput of a
// pipeline): worker state w pushes each (seq, chunk) it produces into
// the sink mkSink(w) returned for it, with no ordering barrier, and
// workerCount states run. consume replaces Next; Close must still be
// called to release the source.
//
// Each state is a re-submitting step, so the FIFO round-robins morsels
// across states even on a one-worker pool — partial sinks stay spread
// the way per-state goroutines would have spread them.
func (p *parScanOp) consume(ctx *Context, mkSink func(w int) func(seq int, c *vector.Chunk) error) error {
	if err := p.Open(ctx); err != nil {
		return err
	}
	p.started = true
	workers := p.workerCount(ctx)
	q := ctx.queryTasks()
	var (
		mu        sync.Mutex
		firstErr  error
		cancelled bool
	)
	remaining := workers
	done := make(chan struct{})
	finish := func() {
		mu.Lock()
		remaining--
		if remaining == 0 {
			close(done)
		}
		mu.Unlock()
	}
	for i := 0; i < workers; i++ {
		sink := mkSink(i)
		ms := p.src.Worker()
		stages := p.workerStages()
		var step func()
		step = func() {
			mu.Lock()
			stop := cancelled
			mu.Unlock()
			if stop {
				finish()
				return
			}
			_, n, err := p.claim(ctx, ms, stages, sink)
			if n == 0 && err == nil {
				finish()
				return
			}
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				cancelled = true
				mu.Unlock()
				finish()
				return
			}
			q.Submit(step)
		}
		q.Submit(step)
	}
	<-done
	mu.Lock()
	defer mu.Unlock()
	return firstErr
}
