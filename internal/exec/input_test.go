package exec

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/buffer"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vector"
)

var errChildFailed = errors.New("child failed")

// failingChild is a non-pipeline child (so breakers pull it through a
// pulledInput): it emits nchunks full chunks of distinct BIGINTs —
// enough distinct groups and sort rows to outgrow a 1MB pool and spill —
// and fails at chunk failAt (never when failAt < 0). At the failure it
// records how many spill files the breaker above holds open.
type failingChild struct {
	nchunks, failAt int
	tmpDir          string

	pos            int
	opens, closes  int
	spillFDsAtFail int
}

func (f *failingChild) Open(*Context) error {
	f.opens++
	f.pos = 0
	return nil
}

func (f *failingChild) Next(*Context) (*vector.Chunk, error) {
	if f.pos == f.failAt {
		f.spillFDsAtFail = openFilesUnder(f.tmpDir)
		return nil, errChildFailed
	}
	if f.pos == f.nchunks {
		return nil, nil
	}
	c := vector.NewLen(types.BigInt, vector.ChunkCapacity)
	for r := range c.I64 {
		// Interleave the chunks' ranges so sorted runs really merge.
		c.I64[r] = int64(r*f.nchunks + f.pos)
	}
	f.pos++
	out := &vector.Chunk{Cols: []*vector.Vector{c}}
	out.SetLen(vector.ChunkCapacity)
	return out, nil
}

func (f *failingChild) Close(*Context) { f.closes++ }

// openFilesUnder counts this process's open descriptors for files under
// dir. Spill files are unlinked right after creation, so a leaked one
// shows only here, not in a directory listing. -1: /proc is unavailable.
func openFilesUnder(dir string) int {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	n := 0
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err == nil && strings.HasPrefix(target, dir+string(filepath.Separator)) {
			n++
		}
	}
	return n
}

// TestBreakerChildFailureReleasesEverything: when a pulled child fails
// at its first, second or last chunk, the aggregate, the sort and the
// window must surface the error from Run, close the child exactly once,
// and leave no pool reservation, spill file or spill descriptor behind —
// including after they spilled under a 1MB pool. A run without the
// failure proves the fixture spills.
func TestBreakerChildFailureReleasesEverything(t *testing.T) {
	const nchunks = 64
	col := func() expr.Expr { return &expr.ColRef{Idx: 0, Typ: types.BigInt} }
	mod := func(m int64) expr.Expr {
		return &expr.Arith{Op: expr.OpMod, L: col(), R: &expr.Const{Val: types.NewBigInt(m)}, Typ: types.BigInt}
	}
	values := &plan.ValuesNode{Cols: []plan.ColInfo{{Name: "v", Type: types.BigInt}}}
	half := &expr.Arith{Op: expr.OpMul, L: &expr.CastExpr{X: col(), To: types.Double},
		R: &expr.Const{Val: types.NewDouble(0.5)}, Typ: types.Double}
	breakers := []struct {
		name string
		mk   func(in breakerInput) Operator
	}{
		{"aggregate", func(in breakerInput) Operator {
			return &aggOp{in: in, node: &plan.AggNode{
				Child:   values,
				GroupBy: []expr.Expr{col()},
				Names:   []string{"v"},
				Aggs: []plan.AggSpec{
					{Func: "count", Type: types.BigInt, Name: "c"},
					{Func: "sum", Arg: half, Type: types.Double, Name: "s"},
				},
			}}
		}},
		{"sort", func(in breakerInput) Operator {
			return &sortOp{in: in, node: &plan.SortNode{Child: values, Keys: []plan.SortKey{{Expr: col(), Desc: true}}}}
		}},
		{"window", func(in breakerInput) Operator {
			return newWindowOp(&plan.WindowNode{
				Child:       values,
				PartitionBy: []expr.Expr{mod(7)},
				OrderBy:     []plan.SortKey{{Expr: col()}},
				Funcs:       []plan.WindowFunc{{Func: "sum", Arg: col(), Type: types.BigInt, Name: "s"}},
			}, in)
		}},
	}
	mgr := txn.NewManager(nil)
	for _, b := range breakers {
		for _, threads := range []int{1, 4} {
			for _, failAt := range []int{-1, 0, 1, nchunks - 1} {
				t.Run(fmt.Sprintf("%s/threads=%d/failAt=%d", b.name, threads, failAt), func(t *testing.T) {
					pool := buffer.NewPool(1<<20, nil)
					stats := &Stats{}
					ctx := &Context{Txn: mgr.Begin(), Threads: threads, Pool: pool, TmpDir: t.TempDir(), Stats: stats}
					child := &failingChild{nchunks: nchunks, failAt: failAt, tmpDir: ctx.TmpDir}
					rows := 0
					err := Run(ctx, b.mk(&pulledInput{child: child}), func(c *vector.Chunk) error {
						rows += c.Len()
						return nil
					})
					if failAt < 0 {
						if err != nil {
							t.Fatal(err)
						}
						if rows != nchunks*vector.ChunkCapacity {
							t.Fatalf("%d rows, want %d", rows, nchunks*vector.ChunkCapacity)
						}
						if stats.AggSpillPartitions.Load() == 0 && stats.SortSpilledBytes.Load() == 0 {
							t.Fatal("nothing spilled; the fixture no longer exercises the spill path")
						}
					} else {
						if !errors.Is(err, errChildFailed) {
							t.Fatalf("Run returned %v, want the child's error", err)
						}
						if failAt == nchunks-1 && child.spillFDsAtFail == 0 {
							t.Fatal("no spill file open at the last chunk; the failure does not exercise spill cleanup")
						}
					}
					if child.opens != 1 || child.closes != 1 {
						t.Fatalf("child opened %d and closed %d times, want 1 and 1", child.opens, child.closes)
					}
					if used := pool.Used(); used != 0 {
						t.Fatalf("%d bytes still reserved", used)
					}
					if left, err := os.ReadDir(ctx.TmpDir); err != nil || len(left) != 0 {
						t.Fatalf("TmpDir holds %d entries (%v)", len(left), err)
					}
					if n := openFilesUnder(ctx.TmpDir); n > 0 {
						t.Fatalf("%d spill files still open", n)
					}
				})
			}
		}
	}
}
