// Package gas implements the vertex-program execution engine the paper
// uses to parallelise COLD's collapsed Gibbs sampler (§4.3, Alg 2), in
// the style of distributed GraphLab (Low et al., PVLDB 2012). Goroutine
// workers stand in for cluster nodes; the schedule keeps GraphLab's
// shape:
//
//   - Batch: the edges are coloured so that edges sharing a vertex never
//     share a colour (ColorEdges), and adjacent colour classes coalesce
//     into a few weight-bounded batches. The batches — and the
//     weight-balanced shards each one is cut into — are a function of
//     the graph and the program's edge weights alone, never of the
//     worker count.
//   - Scatter: the workers claim the batch's shards and run the
//     program's ScatterShard on each, buffering every change to shared
//     state in their own context. Between merges shared state is
//     read-only, so results do not depend on worker interleaving.
//   - Merge: at the batch barrier the program folds all worker contexts
//     into shared state, single-threaded — the "periodic aggregation of
//     global counters" of the paper — and the next batch samples against
//     the fresh counters.
//
// A superstep is one pass over every batch. There is no separate
// gather/apply phase: a program that needs per-vertex aggregates (COLD's
// n_i^(c)) maintains them incrementally in Merge.
package gas

import (
	"errors"
	"fmt"
	"runtime/debug"

	"github.com/cold-diffusion/cold/internal/obs"
)

// Metrics carries the engine's observability instruments. All fields
// are optional (nil instruments are no-ops) and a nil *Metrics disables
// timing entirely, keeping the uninstrumented hot path free of clock
// reads. One Metrics may be shared by several engines.
type Metrics struct {
	// WorkerBusy observes, once per worker per scatter batch, the
	// seconds that worker spent running shards.
	WorkerBusy *obs.Histogram
	// BarrierWait observes, once per worker per scatter batch, the
	// seconds between that worker finishing and the slowest worker
	// finishing — the time lost to the batch barrier. A skewed
	// distribution here means poor shard balance.
	BarrierWait *obs.Histogram
	// Supersteps counts completed Step calls.
	Supersteps *obs.Counter
	// WorkerStalls counts scatter batches aborted by the stall
	// supervisor (per-worker silence past StallPolicy.Grace or a whole
	// batch past StallPolicy.Deadline).
	WorkerStalls *obs.Counter
	// WorkerRestarts counts worker slots recreated after a stall. The
	// engine itself cannot restart workers (a poisoned engine must be
	// discarded); the layer that rebuilds the pool from a known-good
	// snapshot adds to this counter.
	WorkerRestarts *obs.Counter
}

// NewMetrics registers the engine's instruments on reg under the
// cold_gas_* namespace.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		WorkerBusy: reg.Histogram("cold_gas_worker_busy_seconds",
			"Per-worker busy time in one scatter batch.", nil),
		BarrierWait: reg.Histogram("cold_gas_barrier_wait_seconds",
			"Per-worker wait for the slowest worker at the batch barrier.", nil),
		Supersteps: reg.Counter("cold_gas_supersteps_total",
			"Completed GAS supersteps."),
		WorkerStalls: reg.Counter("cold_gas_worker_stalls_total",
			"Scatter batches aborted by the stall supervisor."),
		WorkerRestarts: reg.Counter("cold_gas_worker_restarts_total",
			"Worker slots recreated after a stall by rebuilding the engine."),
	}
}

// Edge is a directed edge with attached data. Src and Dst are vertex
// ids in [0, Graph.Vertices).
type Edge[ED any] struct {
	Src, Dst int32
	Data     ED
}

// Graph is a static graph over typed edge data; vertices are bare ids.
// Build it with NewGraph and AddEdge. NewEngine freezes it.
type Graph[ED any] struct {
	Vertices int
	Edges    []Edge[ED]

	finalized bool
}

// NewGraph creates an edgeless graph over the given number of vertices.
func NewGraph[ED any](vertices int) *Graph[ED] {
	return &Graph[ED]{Vertices: vertices}
}

// AddEdge appends an edge and returns its id. Panics after Finalize.
func (g *Graph[ED]) AddEdge(src, dst int32, data ED) int32 {
	if g.finalized {
		panic("gas: AddEdge after Finalize")
	}
	if int(src) >= g.Vertices || int(dst) >= g.Vertices || src < 0 || dst < 0 {
		panic(fmt.Sprintf("gas: edge (%d,%d) out of range", src, dst))
	}
	g.Edges = append(g.Edges, Edge[ED]{Src: src, Dst: dst, Data: data})
	return int32(len(g.Edges) - 1)
}

// Finalize freezes the edge set: an engine's colouring and shard plan
// are computed once from it, so a later AddEdge would silently never be
// scattered.
func (g *Graph[ED]) Finalize() { g.finalized = true }

// Program is a vertex program: the per-shard scatter kernel, the merge
// that folds its buffered effects into shared state, and the cost model
// the engine balances shards by. Ctx is the per-worker scatter context
// carrying those buffered effects.
type Program[ED, Ctx any] interface {
	// NewCtx allocates the context for one worker.
	NewCtx(worker int) Ctx
	// EdgeWeight reports how expensive one edge's scatter is (for the
	// COLD sampler: its token mass); shards are cut to balance it.
	// Weights below 1 are clamped to 1.
	EdgeWeight(g *Graph[ED], eid int32, e *Edge[ED]) int64
	// ScatterShard visits one shard's edges, in the given canonical
	// order, exactly once per superstep. It may mutate their edge data
	// and must buffer every change to shared state in ctx. Shards are
	// fixed at engine construction from the graph and edge weights alone,
	// so a program that keys its randomness by shard id (not worker id)
	// samples an identical chain under any pool size. beat must be ticked
	// once per edge (it is nil-safe); a false Next signals a supervised
	// abort and the implementation must return immediately.
	ScatterShard(g *Graph[ED], shard int, edges []int32, ctx Ctx, beat *Beat)
	// Merge folds all worker contexts into shared state and clears them.
	// It runs single-threaded after every scatter batch, so the next
	// batch reads fresh state.
	Merge(ctxs []Ctx)
}

// ErrClosed is returned by Step on an engine that has been closed.
var ErrClosed = errors.New("gas: engine closed")

// Engine drives supersteps of a Program over a Graph with a fixed
// worker pool. The scatter schedule is built once at construction and
// pinned: greedy edge colouring, colour classes coalesced into batches,
// batches cut into weight-balanced shards.
type Engine[ED, Ctx any] struct {
	g        *Graph[ED]
	p        Program[ED, Ctx]
	ctxs     []Ctx
	colors   int
	plan     *shardPlan
	pool     *scatterPool[ED, Ctx]
	stats    EngineStats
	m        *Metrics
	sp       *StallPolicy
	poisoned error // set after a stall or Close; every later Step returns it
}

// NewEngine freezes the graph, builds the scatter schedule and starts
// the worker pool (minimum 1 worker). Construction is deterministic:
// edges are coloured and sharded in id order.
func NewEngine[ED, Ctx any](g *Graph[ED], p Program[ED, Ctx], workers int) *Engine[ED, Ctx] {
	g.Finalize()
	if workers < 1 {
		workers = 1
	}
	e := &Engine[ED, Ctx]{g: g, p: p}
	e.ctxs = make([]Ctx, workers)
	for w := range e.ctxs {
		e.ctxs[w] = p.NewCtx(w)
	}
	classes := ColorEdges(g)
	e.colors = len(classes)
	e.plan = buildShardPlan(classes, edgeWeights(g, p))
	e.pool = newScatterPool(g, p, e.ctxs, e.plan.shards)
	e.ResetStats()
	return e
}

// NumShards reports the scatter plan's shard count. Programs size
// per-shard state, e.g. RNG streams, from it.
func (e *Engine[ED, Ctx]) NumShards() int { return e.plan.shards }

// Plan describes the scatter schedule built at construction.
func (e *Engine[ED, Ctx]) Plan() PlanInfo {
	return PlanInfo{Edges: len(e.g.Edges), Colors: e.colors, Batches: len(e.plan.batches), Shards: e.plan.shards}
}

// Close stops the engine's scatter workers and returns once they have
// exited; until then they pin the graph, the program and every worker
// context. Step returns ErrClosed afterwards. Closing a poisoned engine
// is safe — supervised batches never use the pool, so its workers are
// idle — though the stalled goroutine itself stays abandoned.
func (e *Engine[ED, Ctx]) Close() {
	e.pool.close()
	if e.poisoned == nil {
		e.poisoned = ErrClosed
	}
}

// Stats returns a copy of the accumulated scatter timing.
func (e *Engine[ED, Ctx]) Stats() EngineStats { return e.stats.clone() }

// ResetStats zeroes the accumulated timing.
func (e *Engine[ED, Ctx]) ResetStats() {
	e.stats = EngineStats{
		BatchBusy:     make([]float64, len(e.plan.batches)),
		BatchMaxShard: make([]float64, len(e.plan.batches)),
	}
}

// Workers returns the engine's worker count.
func (e *Engine[ED, Ctx]) Workers() int { return len(e.ctxs) }

// SetMetrics attaches observability instruments. Pass nil to detach.
// Call before the first Step; the engine does not synchronise access.
func (e *Engine[ED, Ctx]) SetMetrics(m *Metrics) { e.m = m }

// SetStallPolicy arms per-batch stall supervision. Pass nil to disarm.
// Call before the first Step; the engine does not synchronise access.
func (e *Engine[ED, Ctx]) SetStallPolicy(sp *StallPolicy) { e.sp = sp }

// Ctxs returns the per-worker scatter contexts, for callers that must
// reset worker-local state after a failed superstep.
func (e *Engine[ED, Ctx]) Ctxs() []Ctx { return e.ctxs }

// Step runs one superstep: for each batch of the plan, scatter its
// shards across the workers, then Merge. A panic — in Merge or inside a
// worker goroutine — is recovered and returned as an error rather than
// crashing the host process; the superstep's partial effects are
// undefined and the caller should discard or roll back the program
// state.
//
// Under a StallPolicy a hung worker additionally turns into an error
// wrapping ErrStalled within the policy's bounds, and the engine is
// poisoned: the stuck goroutine may still be mutating the graph, so no
// further supersteps are allowed and Step keeps returning the stall
// error. Rebuild the engine (and its program state) from a known-good
// snapshot to continue.
func (e *Engine[ED, Ctx]) Step() error {
	if e.poisoned != nil {
		return e.poisoned
	}
	for bi := range e.plan.batches {
		if err := e.scatter(bi); err != nil {
			if errors.Is(err, ErrStalled) {
				e.poisoned = err
			}
			return err
		}
		if err := e.merge(); err != nil {
			return err
		}
	}
	e.stats.Supersteps++
	if e.m != nil {
		e.m.Supersteps.Inc()
	}
	return nil
}

// safely runs fn, converting a panic into an error carrying the panic
// value and a truncated stack.
func safely(fn func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("gas: panic: %v\n%s", p, truncatedStack())
		}
	}()
	fn()
	return nil
}

func truncatedStack() []byte {
	stack := debug.Stack()
	if len(stack) > 2048 {
		stack = stack[:2048]
	}
	return stack
}
