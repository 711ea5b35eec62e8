// Package gas implements a vertex-centric gather–apply–scatter (GAS)
// computation engine in the style of distributed GraphLab (Low et al.,
// PVLDB 2012), which the paper uses to parallelise COLD's collapsed Gibbs
// sampler (§4.3, Alg 2). This in-process engine substitutes goroutine
// workers for cluster nodes while keeping the same program abstraction:
//
//   - Gather: each vertex folds an accumulator over its incident edges.
//   - Apply: the vertex updates its own data from the folded accumulator.
//   - Scatter: each edge is visited once and may update its edge data,
//     accumulating changes to global state into a per-worker context.
//
// A superstep runs gather+apply for every vertex, then scatter for every
// edge, then merges the per-worker contexts into global state — the
// "periodic aggregation of global counters" described in the paper.
// Within a superstep all reads see the state as of the previous merge, so
// results are independent of worker interleaving given fixed per-worker
// work assignment.
package gas

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"github.com/cold-diffusion/cold/internal/faultinject"
	"github.com/cold-diffusion/cold/internal/obs"
)

// Metrics carries the engine's observability instruments. All fields
// are optional (nil instruments are no-ops) and a nil *Metrics disables
// timing entirely, keeping the uninstrumented hot path free of clock
// reads. One Metrics may be shared by several engines.
type Metrics struct {
	// WorkerBusy observes, once per worker per parallel phase, the
	// seconds that worker spent running its block.
	WorkerBusy *obs.Histogram
	// BarrierWait observes, once per worker per parallel phase, the
	// seconds between that worker finishing and the slowest worker
	// finishing — the time lost to the superstep barrier. A skewed
	// distribution here means poor block balance.
	BarrierWait *obs.Histogram
	// Supersteps counts completed Step calls.
	Supersteps *obs.Counter
	// WorkerStalls counts parallel phases aborted by the stall
	// supervisor (per-worker silence past StallPolicy.Grace or a whole
	// phase past StallPolicy.Deadline).
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
			"Per-worker busy time in one parallel phase (gather/apply or scatter).", nil),
		BarrierWait: reg.Histogram("cold_gas_barrier_wait_seconds",
			"Per-worker wait for the slowest worker at the phase barrier.", nil),
		Supersteps: reg.Counter("cold_gas_supersteps_total",
			"Completed GAS supersteps."),
		WorkerStalls: reg.Counter("cold_gas_worker_stalls_total",
			"Parallel phases aborted by the stall supervisor."),
		WorkerRestarts: reg.Counter("cold_gas_worker_restarts_total",
			"Worker slots recreated after a stall by rebuilding the engine."),
	}
}

// Edge is a directed edge with attached data. Src and Dst index the
// graph's vertex array.
type Edge[ED any] struct {
	Src, Dst int32
	Data     ED
}

// Graph is a static graph over typed vertex and edge data. Build it with
// NewGraph and AddEdge, then Finalize before running an engine.
type Graph[VD, ED any] struct {
	Vertices []VD
	Edges    []Edge[ED]

	incident  [][]int32 // edge ids incident to each vertex (in or out)
	finalized bool
}

// NewGraph creates a graph whose vertex data is the given slice.
func NewGraph[VD, ED any](vertices []VD) *Graph[VD, ED] {
	return &Graph[VD, ED]{Vertices: vertices}
}

// AddEdge appends an edge and returns its id. Panics after Finalize.
func (g *Graph[VD, ED]) AddEdge(src, dst int32, data ED) int32 {
	if g.finalized {
		panic("gas: AddEdge after Finalize")
	}
	if int(src) >= len(g.Vertices) || int(dst) >= len(g.Vertices) || src < 0 || dst < 0 {
		panic(fmt.Sprintf("gas: edge (%d,%d) out of range", src, dst))
	}
	g.Edges = append(g.Edges, Edge[ED]{Src: src, Dst: dst, Data: data})
	return int32(len(g.Edges) - 1)
}

// Finalize builds the incidence index. Call once after all AddEdge calls.
// The index is one CSR array filled in two passes (count degrees, then
// place edge ids), so construction is linear in the edge count however
// skewed the degrees are.
func (g *Graph[VD, ED]) Finalize() {
	if g.finalized {
		return
	}
	degree := make([]int32, len(g.Vertices))
	total := 0
	for id := range g.Edges {
		e := &g.Edges[id]
		degree[e.Src]++
		total++
		if e.Dst != e.Src {
			degree[e.Dst]++
			total++
		}
	}
	backing := make([]int32, total)
	g.incident = make([][]int32, len(g.Vertices))
	lo := 0
	for v, d := range degree {
		hi := lo + int(d)
		g.incident[v] = backing[lo:lo:hi]
		lo = hi
	}
	for id := range g.Edges {
		e := &g.Edges[id]
		g.incident[e.Src] = append(g.incident[e.Src], int32(id))
		if e.Dst != e.Src {
			g.incident[e.Dst] = append(g.incident[e.Dst], int32(id))
		}
	}
	g.finalized = true
}

// Incident returns the edge ids incident to vertex v (do not modify).
func (g *Graph[VD, ED]) Incident(v int32) []int32 { return g.incident[v] }

// Program is a GAS vertex program. Acc is the gather accumulator type and
// Ctx the per-worker scatter context carrying global-state deltas.
type Program[VD, ED, Acc, Ctx any] interface {
	// NewCtx allocates the context for one worker.
	NewCtx(worker int) Ctx
	// Gather folds edge e (incident to vertex v) into an accumulator.
	Gather(g *Graph[VD, ED], v int32, e *Edge[ED]) Acc
	// Sum combines two accumulators.
	Sum(a, b Acc) Acc
	// Apply updates vertex v from the folded accumulator. has reports
	// whether the vertex had any incident edge.
	Apply(g *Graph[VD, ED], v int32, acc Acc, has bool)
	// Scatter visits edge e exactly once per superstep and may mutate its
	// data, accumulating global-state changes into ctx.
	Scatter(g *Graph[VD, ED], eid int32, e *Edge[ED], ctx Ctx)
	// Merge folds all worker contexts into global state after the scatter
	// phase. It runs single-threaded.
	Merge(ctxs []Ctx)
}

// InPlaceGatherer is an optional Program extension for allocation-free
// gathering. When a program implements it, the engines fold each
// vertex's incident edges into a worker-local accumulator that is
// recycled between vertices instead of calling Gather/Sum, which must
// allocate a fresh accumulator per edge. GatherInto receives has=false
// on a vertex's first edge and must then (re)initialise acc — growing it
// if needed — before folding; Apply must copy out of acc rather than
// retain it, since the next vertex on the same worker reuses the buffer.
type InPlaceGatherer[VD, ED, Acc, Ctx any] interface {
	GatherInto(g *Graph[VD, ED], v int32, e *Edge[ED], acc Acc, has bool) Acc
}

// gatherApply runs the gather+apply phase for vertices [lo, hi), using
// the in-place path when the program supports it. beat is ticked once
// per vertex; a false Next (supervised abort) stops the block early.
func gatherApply[VD, ED, Acc, Ctx any](g *Graph[VD, ED], p Program[VD, ED, Acc, Ctx], ipg InPlaceGatherer[VD, ED, Acc, Ctx], lo, hi int, beat *Beat) {
	if ipg != nil {
		var acc Acc // worker-local; recycled across this block's vertices
		for v := lo; v < hi; v++ {
			if !beat.Next() {
				return
			}
			vid := int32(v)
			has := false
			for _, eid := range g.incident[v] {
				acc = ipg.GatherInto(g, vid, &g.Edges[eid], acc, has)
				has = true
			}
			p.Apply(g, vid, acc, has)
		}
		return
	}
	for v := lo; v < hi; v++ {
		if !beat.Next() {
			return
		}
		vid := int32(v)
		var acc Acc
		has := false
		for _, eid := range g.incident[v] {
			a := p.Gather(g, vid, &g.Edges[eid])
			if !has {
				acc, has = a, true
			} else {
				acc = p.Sum(acc, a)
			}
		}
		p.Apply(g, vid, acc, has)
	}
}

// ErrClosed is returned by Step on an engine that has been closed.
var ErrClosed = errors.New("gas: engine closed")

// Engine drives supersteps of a Program over a finalized Graph with a
// fixed worker pool. Work is split into contiguous blocks per worker so
// a given (graph, workers) pair is deterministic.
type Engine[VD, ED, Acc, Ctx any] struct {
	g        *Graph[VD, ED]
	p        Program[VD, ED, Acc, Ctx]
	ipg      InPlaceGatherer[VD, ED, Acc, Ctx] // non-nil when p supports in-place gather
	workers  int
	ctxs     []Ctx
	sx       *shardExec[VD, ED, Ctx] // sharded scatter path (inert for per-edge programs)
	m        *Metrics
	sp       *StallPolicy
	poisoned error // set after a stall or Close; every later Step returns it
}

// NewEngine creates an engine with the given worker count (minimum 1).
func NewEngine[VD, ED, Acc, Ctx any](g *Graph[VD, ED], p Program[VD, ED, Acc, Ctx], workers int) *Engine[VD, ED, Acc, Ctx] {
	if !g.finalized {
		g.Finalize()
	}
	if workers < 1 {
		workers = 1
	}
	e := &Engine[VD, ED, Acc, Ctx]{g: g, p: p, workers: workers}
	e.ipg, _ = p.(InPlaceGatherer[VD, ED, Acc, Ctx])
	e.ctxs = make([]Ctx, workers)
	for w := 0; w < workers; w++ {
		e.ctxs[w] = p.NewCtx(w)
	}
	// The synchronous engine has no ordering constraints between edges
	// (snapshot semantics), so the whole edge set forms one batch.
	all := make([]int32, len(g.Edges))
	for i := range all {
		all[i] = int32(i)
	}
	e.sx = newShardExec[VD, ED, Ctx](g, p, e.ctxs, workers, [][]int32{all})
	return e
}

// NumShards reports the scatter plan's shard count (0 when the program
// scatters per edge). Sharded programs size per-shard state, e.g. RNG
// streams, from it.
func (e *Engine[VD, ED, Acc, Ctx]) NumShards() int { return e.sx.numShards() }

// Plan describes the scatter schedule built at construction; the
// synchronous engine's edges form one class.
func (e *Engine[VD, ED, Acc, Ctx]) Plan() PlanInfo {
	return e.sx.planInfo(len(e.g.Edges), 1)
}

// Close stops the engine's scatter workers and returns once they have
// exited; see ChromaticEngine.Close.
func (e *Engine[VD, ED, Acc, Ctx]) Close() {
	e.sx.close()
	if e.poisoned == nil {
		e.poisoned = ErrClosed
	}
}

// Stats returns a copy of the accumulated sharded-scatter timing.
func (e *Engine[VD, ED, Acc, Ctx]) Stats() EngineStats { return e.sx.snapshot() }

// ResetStats zeroes the accumulated timing.
func (e *Engine[VD, ED, Acc, Ctx]) ResetStats() { e.sx.reset() }

// Workers returns the engine's worker count.
func (e *Engine[VD, ED, Acc, Ctx]) Workers() int { return e.workers }

// SetMetrics attaches observability instruments. Pass nil to detach.
// Call before the first Step; the engine does not synchronise access.
func (e *Engine[VD, ED, Acc, Ctx]) SetMetrics(m *Metrics) { e.m = m }

// SetStallPolicy arms per-phase stall supervision. Pass nil to disarm.
// Call before the first Step; the engine does not synchronise access.
func (e *Engine[VD, ED, Acc, Ctx]) SetStallPolicy(sp *StallPolicy) { e.sp = sp }

// Ctxs returns the per-worker scatter contexts, for programs that need to
// checkpoint worker-local state (e.g. RNG streams) between supersteps.
func (e *Engine[VD, ED, Acc, Ctx]) Ctxs() []Ctx { return e.ctxs }

// Step runs one superstep: gather+apply over all vertices, scatter over
// all edges, then Merge. A panic in any phase — including inside a worker
// goroutine — is recovered and returned as an error rather than crashing
// the host process; the superstep's partial effects are undefined and the
// caller should discard or roll back the program state.
//
// Under a StallPolicy a hung worker additionally turns into an error
// wrapping ErrStalled within the policy's bounds, and the engine is
// poisoned: the stuck goroutine may still be mutating the graph, so no
// further supersteps are allowed and Step keeps returning the stall
// error. Rebuild the engine (and its program state) from a known-good
// snapshot to continue.
func (e *Engine[VD, ED, Acc, Ctx]) Step() error {
	if e.poisoned != nil {
		return e.poisoned
	}
	if !e.sx.incremental {
		if err := runBlocks(e.m, e.sp, "gather", e.workers, len(e.g.Vertices), func(worker, lo, hi int, beat *Beat) {
			gatherApply(e.g, e.p, e.ipg, lo, hi, beat)
		}); err != nil {
			return e.poison(err)
		}
	}
	if e.sx.sharded != nil {
		if err := e.sx.runScatter(e.g, e.ctxs, e.m, e.sp); err != nil {
			return e.poison(err)
		}
	} else if err := runBlocks(e.m, e.sp, "scatter", e.workers, len(e.g.Edges), func(worker, lo, hi int, beat *Beat) {
		faultinject.Fire(faultinject.GasScatterWorker, worker)
		ctx := e.ctxs[worker]
		for id := lo; id < hi; id++ {
			if !beat.Next() {
				return
			}
			e.p.Scatter(e.g, int32(id), &e.g.Edges[id], ctx)
		}
	}); err != nil {
		return e.poison(err)
	}
	if err := e.sx.runMerge(e.ctxs); err != nil {
		return err
	}
	e.sx.stats.Supersteps++
	if e.m != nil {
		e.m.Supersteps.Inc()
	}
	return nil
}

func (e *Engine[VD, ED, Acc, Ctx]) poison(err error) error {
	if errors.Is(err, ErrStalled) {
		e.poisoned = err
	}
	return err
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

// runBlocks splits [0, n) into one contiguous block per worker and runs
// fn concurrently. Blocks are assigned by worker index so the partition is
// stable across supersteps. A panic in any block (worker goroutine or the
// single-threaded fast path) is recovered; the first one is returned.
//
// With non-nil metrics each block's fn duration is observed as worker
// busy time, and the gap between a worker finishing and the slowest
// worker finishing as barrier wait. A nil m skips all clock reads.
//
// With an enabled StallPolicy the phase runs under runSupervised
// instead: every block gets a goroutine and a heartbeat, and a hung
// block turns into an error wrapping ErrStalled instead of hanging the
// caller. The single-block inline fast path only applies unsupervised —
// a stall on the calling goroutine could never be detected, let alone
// aborted.
func runBlocks(m *Metrics, sp *StallPolicy, phase string, workers, n int, fn func(worker, lo, hi int, beat *Beat)) error {
	if sp.enabled() {
		return runSupervised(m, sp, phase, workers, n, fn)
	}
	if workers == 1 || n < 2*workers {
		if m == nil {
			return safely(func() { fn(0, 0, n, nil) })
		}
		start := time.Now()
		err := safely(func() { fn(0, 0, n, nil) })
		m.WorkerBusy.Observe(time.Since(start).Seconds())
		m.BarrierWait.Observe(0) // lone block: nothing to wait for
		return err
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	var finished []time.Time
	if m != nil {
		finished = make([]time.Time, workers)
	}
	block := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * block
		hi := lo + block
		if lo >= n {
			break
		}
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			start := time.Now()
			if err := safely(func() { fn(w, lo, hi, nil) }); err != nil {
				errs[w] = fmt.Errorf("gas: worker %d: %w", w, err)
			}
			if m != nil {
				finished[w] = time.Now()
				m.WorkerBusy.Observe(finished[w].Sub(start).Seconds())
			}
		}(w, lo, hi)
	}
	wg.Wait()
	if m != nil {
		barrier := time.Now()
		for _, t := range finished {
			if !t.IsZero() {
				m.BarrierWait.Observe(barrier.Sub(t).Seconds())
			}
		}
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
