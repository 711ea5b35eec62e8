package gas

import (
	"errors"
	"math/bits"

	"github.com/cold-diffusion/cold/internal/faultinject"
)

// Chromatic scheduling: GraphLab's edge-consistency model guarantees
// that no two updates touching the same vertex run concurrently. The
// synchronous Engine achieves safety with snapshot semantics instead;
// the ChromaticEngine provides true edge consistency by colouring edges
// so that edges sharing an endpoint never share a colour, then running
// colour classes sequentially with parallelism inside each class. A
// program whose Scatter mutates *vertex* data (not just edge data) is
// safe under this engine.
type ChromaticEngine[VD, ED, Acc, Ctx any] struct {
	g        *Graph[VD, ED]
	p        Program[VD, ED, Acc, Ctx]
	ipg      InPlaceGatherer[VD, ED, Acc, Ctx] // non-nil when p supports in-place gather
	workers  int
	ctxs     []Ctx
	colors   [][]int32               // edge ids per colour class
	sx       *shardExec[VD, ED, Ctx] // sharded scatter path (inert for per-edge programs)
	m        *Metrics
	sp       *StallPolicy
	poisoned error // set after a stall or Close; every later Step returns it
}

// NewChromaticEngine colours the graph's edges greedily and returns the
// engine. Colouring is deterministic (edges processed in id order).
func NewChromaticEngine[VD, ED, Acc, Ctx any](g *Graph[VD, ED], p Program[VD, ED, Acc, Ctx], workers int) *ChromaticEngine[VD, ED, Acc, Ctx] {
	if !g.finalized {
		g.Finalize()
	}
	if workers < 1 {
		workers = 1
	}
	e := &ChromaticEngine[VD, ED, Acc, Ctx]{g: g, p: p, workers: workers}
	e.ipg, _ = p.(InPlaceGatherer[VD, ED, Acc, Ctx])
	e.ctxs = make([]Ctx, workers)
	for w := 0; w < workers; w++ {
		e.ctxs[w] = p.NewCtx(w)
	}
	e.colors = ColorEdges(g)
	// Sharded programs scatter colour class by colour class; incremental
	// boundary-merging programs additionally let adjacent classes
	// coalesce into weight-bounded batches (they never touch shared
	// vertex data, so edge consistency is not needed between classes —
	// the boundary merge after each batch is what keeps counters fresh).
	e.sx = newShardExec[VD, ED, Ctx](g, p, e.ctxs, workers, e.colors)
	return e
}

// NumShards reports the scatter plan's shard count (0 when the program
// scatters per edge). Sharded programs size per-shard state, e.g. RNG
// streams, from it.
func (e *ChromaticEngine[VD, ED, Acc, Ctx]) NumShards() int { return e.sx.numShards() }

// Plan describes the scatter schedule built at construction.
func (e *ChromaticEngine[VD, ED, Acc, Ctx]) Plan() PlanInfo {
	return e.sx.planInfo(len(e.g.Edges), len(e.colors))
}

// Close stops the engine's scatter workers and returns once they have
// exited; until then they pin the graph, the program and every worker
// context. Step returns ErrClosed afterwards. Closing a poisoned engine
// is safe — supervised phases never use the pool, so its workers are
// idle — though the stalled goroutine itself stays abandoned.
func (e *ChromaticEngine[VD, ED, Acc, Ctx]) Close() {
	e.sx.close()
	if e.poisoned == nil {
		e.poisoned = ErrClosed
	}
}

// Stats returns a copy of the accumulated sharded-scatter timing.
func (e *ChromaticEngine[VD, ED, Acc, Ctx]) Stats() EngineStats { return e.sx.snapshot() }

// ResetStats zeroes the accumulated timing.
func (e *ChromaticEngine[VD, ED, Acc, Ctx]) ResetStats() { e.sx.reset() }

// ColorEdges assigns each edge the smallest colour not used by another
// edge at either endpoint, visiting edges in id order (greedy edge
// colouring; at most 2Δ−1 colours), and returns the edge ids of every
// colour class in ascending order. The classes fix the chromatic
// scatter order — and through it the shard plan and every sharded
// program's per-shard random streams — so the result is pinned to
// exactly this greedy, edge for edge.
//
// Each vertex keeps the set of colours its edges hold as a bitset grown
// on demand; an edge's colour is the first zero bit of used[src] |
// used[dst]. That is O(E·Δ/64) word operations. Walking both endpoints'
// incidence lists per edge instead would be Σ_v deg(v)² — quadratic on
// the Fig 4 layout, whose time-slice vertices are hubs of degree ≈ E/T.
func ColorEdges[VD, ED any](g *Graph[VD, ED]) [][]int32 {
	used := make([][]uint64, len(g.Vertices))
	edgeColor := make([]int32, len(g.Edges))
	var classSize []int32
	for id := range g.Edges {
		e := &g.Edges[id]
		a, b := used[e.Src], used[e.Dst]
		if len(a) < len(b) {
			a, b = b, a
		}
		// First zero bit of a|b; past the end of a every colour is free.
		color := len(a) * 64
		for w, word := range a {
			if w < len(b) {
				word |= b[w]
			}
			if word != ^uint64(0) {
				color = w*64 + bits.TrailingZeros64(^word)
				break
			}
		}
		used[e.Src] = setBit(used[e.Src], color)
		if e.Dst != e.Src {
			used[e.Dst] = setBit(used[e.Dst], color)
		}
		edgeColor[id] = int32(color)
		if color == len(classSize) {
			classSize = append(classSize, 0)
		}
		classSize[color]++
	}
	// Count-then-fill: one backing array cut into the classes.
	backing := make([]int32, len(g.Edges))
	classes := make([][]int32, len(classSize))
	lo := 0
	for c, n := range classSize {
		hi := lo + int(n)
		classes[c] = backing[lo:lo:hi]
		lo = hi
	}
	for id, c := range edgeColor {
		classes[c] = append(classes[c], int32(id))
	}
	return classes
}

// setBit sets bit i of the bitset, growing it to reach the bit.
func setBit(set []uint64, i int) []uint64 {
	w := i / 64
	for len(set) <= w {
		set = append(set, 0)
	}
	set[w] |= 1 << (i % 64)
	return set
}

// Colors returns the number of colour classes.
func (e *ChromaticEngine[VD, ED, Acc, Ctx]) Colors() int { return len(e.colors) }

// Workers returns the worker count.
func (e *ChromaticEngine[VD, ED, Acc, Ctx]) Workers() int { return e.workers }

// SetMetrics attaches observability instruments. Pass nil to detach.
// Call before the first Step; the engine does not synchronise access.
func (e *ChromaticEngine[VD, ED, Acc, Ctx]) SetMetrics(m *Metrics) { e.m = m }

// SetStallPolicy arms per-phase stall supervision. Pass nil to disarm.
// Call before the first Step; the engine does not synchronise access.
func (e *ChromaticEngine[VD, ED, Acc, Ctx]) SetStallPolicy(sp *StallPolicy) { e.sp = sp }

// Ctxs returns the per-worker scatter contexts, for programs that need to
// checkpoint worker-local state between supersteps.
func (e *ChromaticEngine[VD, ED, Acc, Ctx]) Ctxs() []Ctx { return e.ctxs }

// Step runs one superstep: gather+apply over all vertices, then scatter
// colour class by colour class (parallel within a class), then Merge.
// Panics in any phase are recovered and returned as errors, and stalls
// under a StallPolicy poison the engine, as for Engine.Step.
func (e *ChromaticEngine[VD, ED, Acc, Ctx]) Step() error {
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
	} else {
		for _, class := range e.colors {
			if err := runBlocks(e.m, e.sp, "scatter", e.workers, len(class), func(worker, lo, hi int, beat *Beat) {
				faultinject.Fire(faultinject.GasScatterWorker, worker)
				ctx := e.ctxs[worker]
				for i := lo; i < hi; i++ {
					if !beat.Next() {
						return
					}
					id := class[i]
					e.p.Scatter(e.g, id, &e.g.Edges[id], ctx)
				}
			}); err != nil {
				return e.poison(err)
			}
		}
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

func (e *ChromaticEngine[VD, ED, Acc, Ctx]) poison(err error) error {
	if errors.Is(err, ErrStalled) {
		e.poisoned = err
	}
	return err
}
