package exec

import (
	"repro/internal/plan"
	"repro/internal/vector"
)

// breakerInput is the one input path of the pipeline breakers
// (aggregate, sort, window): consume pushes every (seq, chunk) of the
// child into the sink mkSink(w) returned for worker state w. Sequence
// numbers order the chunks of the child's stream, so breaker state keyed
// by them — a group's first-seen position, per-chunk DOUBLE subtotals,
// the hidden sort tiebreak — is the same whichever input produced it.
//
// A morsel pipeline (*parScanOp) feeds one sink per worker state with
// its morsel sequence numbers; any other child is a pulledInput.
type breakerInput interface {
	Open(ctx *Context) error
	// workerCount is the number of sinks consume creates; valid after
	// Open.
	workerCount(ctx *Context) int
	consume(ctx *Context, mkSink func(w int) func(seq int, c *vector.Chunk) error) error
	Close(ctx *Context)
}

// pulledInput adapts an operator that is not a pipeline (a join, a
// union, another breaker) into a one-worker breaker input whose chunks
// are numbered in stream order.
type pulledInput struct{ child Operator }

func (p *pulledInput) Open(ctx *Context) error { return p.child.Open(ctx) }

func (p *pulledInput) workerCount(*Context) int { return 1 }

// consume drains the child into a single sink, numbering non-empty
// chunks 0, 1, 2, .... It pulls on the calling goroutine, never on a pool
// worker: a child such as a hash join over a pipeline blocks in Next on
// its own scheduler tasks, which a one-worker pool could not run while
// its only worker waited.
//
//quack:hotpath
func (p *pulledInput) consume(ctx *Context, mkSink func(w int) func(seq int, c *vector.Chunk) error) error {
	sink := mkSink(0)
	for seq := 0; ; {
		c, err := p.child.Next(ctx)
		if err != nil || c == nil {
			return err
		}
		if c.Len() == 0 {
			continue
		}
		if err := sink(seq, c); err != nil {
			return err
		}
		seq++
	}
}

func (p *pulledInput) Close(ctx *Context) { p.child.Close(ctx) }

// buildInput compiles a breaker's child: the morsel pipeline build made
// for a scan→filter→project chain, or any other operator behind a
// pulledInput.
func buildInput(node plan.Node, prof *Profiler) (breakerInput, error) {
	op, err := build(node, prof)
	if err != nil {
		return nil, err
	}
	if p, ok := op.(*parScanOp); ok {
		return p, nil
	}
	return &pulledInput{child: op}, nil
}
