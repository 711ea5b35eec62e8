package gas

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/cold-diffusion/cold/internal/faultinject"
)

// Sharded scatter execution. GraphLab's scaling (Low et al., PVLDB
// 2012, §5) comes from two properties the naive block-per-worker
// scatter lacks: work is partitioned by locality and cost rather than
// by index range, and the schedule is a property of the *graph*, not of
// the worker pool, so adding workers changes only who executes a shard
// — never what any shard computes. This file provides that layer for
// both engines: programs opt in through the interfaces below, the
// engines build a shard plan once at construction, and a persistent
// worker pool executes it every superstep without allocating.

// EdgeWeighter is an optional Program extension reporting how expensive
// one edge's scatter is (for the COLD sampler: its token mass). Engines
// use it to balance shards by work instead of edge count; without it
// every edge weighs 1. Weights below 1 are clamped to 1.
type EdgeWeighter[VD, ED any] interface {
	EdgeWeight(g *Graph[VD, ED], eid int32, e *Edge[ED]) int64
}

// ShardScatterer is an optional Program extension replacing per-edge
// Scatter calls with whole-shard calls. Shards are fixed contiguous
// weight-balanced spans of the scatter order, computed once at engine
// construction from the graph and edge weights alone — never from the
// worker count. A program that keys its randomness by shard id (rather
// than worker id) therefore samples an identical chain under any pool
// size. edges holds the shard's edge ids in canonical order. beat must
// be ticked once per edge (it is nil-safe); a false Next signals a
// supervised abort and the implementation must return immediately.
type ShardScatterer[VD, ED, Ctx any] interface {
	ScatterShard(g *Graph[VD, ED], shard int, edges []int32, ctx Ctx, beat *Beat)
}

// BoundaryMerger is an optional Program extension for engines that
// scatter in batches (the ChromaticEngine's coalesced colour classes):
// after each batch the engine calls MergeBoundary single-threaded so
// the program can fold buffered deltas into global state, letting the
// next batch sample against fresher counters. Merge still runs at
// superstep end and should then be a cheap no-op for work already
// folded at boundaries.
type BoundaryMerger[Ctx any] interface {
	MergeBoundary(ctxs []Ctx)
}

// IncrementalProgram is an optional Program extension declaring that
// the program maintains all vertex-adjacent state itself (at merge
// boundaries), so the engines skip the gather+apply phase entirely and
// no phase reads vertex data.
type IncrementalProgram interface {
	Incremental() bool
}

const (
	// shardsPerBatch is the scheduling granularity *within one
	// barrier-delimited batch* — the unit that bounds parallelism,
	// since workers only rebalance between barriers. ~4× the largest
	// expected worker count keeps dynamic assignment load-balanced even
	// under weight skew, while per-shard dispatch and timing overhead
	// stay invisible.
	shardsPerBatch = 32
	// maxScatterBatches bounds how many scatter barriers a chromatic
	// superstep pays when colour classes are coalesced: classes merge
	// (in colour order) until each batch carries at least
	// 1/maxScatterBatches of the total edge weight.
	maxScatterBatches = 16
)

// shardSpan is one contiguous unit of scatter work. id is global across
// the whole plan and stable for the lifetime of the engine.
type shardSpan struct {
	id    int
	edges []int32
}

// shardBatch is a barrier-delimited group of mutually independent
// shards; a boundary merge may run after each batch.
type shardBatch struct {
	shards []shardSpan
}

// shardPlan is the complete scatter schedule of one engine.
type shardPlan struct {
	batches []shardBatch
	shards  int
}

// edgeWeights evaluates the program's EdgeWeight for every edge (1 when
// the program is not an EdgeWeighter), clamping to a minimum of 1 so
// zero-weight spans cannot defeat the balancing arithmetic.
func edgeWeights[VD, ED any](g *Graph[VD, ED], p any) []int64 {
	weights := make([]int64, len(g.Edges))
	ew, ok := p.(EdgeWeighter[VD, ED])
	for i := range g.Edges {
		w := int64(1)
		if ok {
			w = ew.EdgeWeight(g, int32(i), &g.Edges[i])
			if w < 1 {
				w = 1
			}
		}
		weights[i] = w
	}
	return weights
}

// buildShardPlan turns ordered edge classes into the scatter schedule:
// classes optionally coalesce into at most ~maxScatterBatches batches,
// and each batch splits into up to shardsPerBatch contiguous shards with
// cuts placed to balance weight, not edge count. The result depends only
// on (classes, weights).
func buildShardPlan(classes [][]int32, weights []int64, coalesce bool) *shardPlan {
	var total int64
	classW := make([]int64, len(classes))
	for i, class := range classes {
		var w int64
		for _, eid := range class {
			w += weights[eid]
		}
		classW[i] = w
		total += w
	}

	var groups [][]int32
	var groupW []int64
	if coalesce {
		minW := total / maxScatterBatches
		var cur []int32
		var curW int64
		for i, class := range classes {
			cur = append(cur, class...)
			curW += classW[i]
			if (curW > minW || i == len(classes)-1) && len(cur) > 0 {
				groups = append(groups, cur)
				groupW = append(groupW, curW)
				cur, curW = nil, 0
			}
		}
	} else {
		for i, class := range classes {
			if len(class) == 0 {
				continue
			}
			groups = append(groups, class)
			groupW = append(groupW, classW[i])
		}
	}

	plan := &shardPlan{}
	id := 0
	for gi, edges := range groups {
		gw := groupW[gi]
		ns := shardsPerBatch
		if ns > len(edges) {
			ns = len(edges)
		}
		batch := shardBatch{shards: make([]shardSpan, 0, ns)}
		lo, s := 0, 0
		var cum int64
		for i, eid := range edges {
			cum += weights[eid]
			var cut bool
			if s+1 == ns {
				cut = i == len(edges)-1
			} else {
				remEdges := len(edges) - (i + 1)
				remShards := ns - (s + 1)
				cut = (cum*int64(ns) >= int64(s+1)*gw && remEdges >= remShards) ||
					remEdges == remShards
			}
			if cut {
				batch.shards = append(batch.shards, shardSpan{id: id, edges: edges[lo : i+1]})
				id++
				s++
				lo = i + 1
			}
		}
		plan.batches = append(plan.batches, batch)
	}
	plan.shards = id
	return plan
}

// EngineStats accumulates scatter timing across supersteps on the
// sharded execution path (zero for programs without ShardScatterer, and
// on supervised phases, which keep their own accounting). It is what
// the bench layer reads to report scaling honestly.
type EngineStats struct {
	// Supersteps counts completed Step calls since the last reset.
	Supersteps int
	// BusySeconds sums the execution time of every scatter shard.
	BusySeconds float64
	// BarrierSeconds sums the time workers spent waiting for the
	// slowest worker at batch barriers.
	BarrierSeconds float64
	// SerialSeconds sums single-threaded Merge/MergeBoundary time.
	SerialSeconds float64
	// BatchBusy and BatchMaxShard accumulate, per scatter batch, the
	// summed shard seconds and the longest single shard of each
	// superstep — the inputs of the critical-path projection.
	BatchBusy     []float64
	BatchMaxShard []float64
}

// ProjectedSeconds is the critical-path projection of the recorded
// scatter schedule onto w ideal workers: each batch cannot finish
// faster than max(batch work / w, its longest shard), and serial merge
// sections add on top. Because the shard plan and the sampled chain are
// worker-count independent, the projection from a 1-worker run is the
// schedule's true parallel structure — which a host with fewer cores
// than workers cannot show in wall-clock time.
func (s EngineStats) ProjectedSeconds(w int) float64 {
	if w < 1 {
		w = 1
	}
	total := s.SerialSeconds
	for b, busy := range s.BatchBusy {
		p := busy / float64(w)
		if m := s.BatchMaxShard[b]; m > p {
			p = m
		}
		total += p
	}
	return total
}

// clone returns a deep copy safe to hand to callers.
func (s EngineStats) clone() EngineStats {
	out := s
	out.BatchBusy = append([]float64(nil), s.BatchBusy...)
	out.BatchMaxShard = append([]float64(nil), s.BatchMaxShard...)
	return out
}

// scatterPool is a persistent worker pool executing shard batches. The
// goroutines live until the engine is closed and receive work over
// per-worker channels, so a steady-state scatter phase performs no
// allocations — no per-phase goroutines, closures or slices. Shards are
// claimed off a shared atomic cursor: the shard→worker mapping is
// dynamic (good load balance under skew), which is safe precisely
// because sharded programs key their state by shard id, not worker id.
type scatterPool[VD, ED, Ctx any] struct {
	g       *Graph[VD, ED]
	prog    ShardScatterer[VD, ED, Ctx]
	ctxs    []Ctx
	workers int

	tasks  []chan []shardSpan
	wg     sync.WaitGroup // one batch's workers
	live   sync.WaitGroup // the pool goroutines themselves
	cursor atomic.Int64

	errs []error
	busy []time.Duration
	done []time.Time
	// shardSecs[id] is the duration of shard id's most recent run,
	// overwritten each batch; the engine folds it into EngineStats.
	shardSecs []float64
}

func newScatterPool[VD, ED, Ctx any](g *Graph[VD, ED], prog ShardScatterer[VD, ED, Ctx], ctxs []Ctx, workers, totalShards int) *scatterPool[VD, ED, Ctx] {
	p := &scatterPool[VD, ED, Ctx]{
		g:         g,
		prog:      prog,
		ctxs:      ctxs,
		workers:   workers,
		errs:      make([]error, workers),
		busy:      make([]time.Duration, workers),
		done:      make([]time.Time, workers),
		shardSecs: make([]float64, totalShards),
	}
	if workers > 1 {
		p.tasks = make([]chan []shardSpan, workers)
		for w := range p.tasks {
			p.tasks[w] = make(chan []shardSpan, 1)
			p.live.Add(1)
			go p.serve(w, p.tasks[w])
		}
	}
	return p
}

// serve is one pool goroutine's loop; it ends when close closes the
// worker's task channel.
func (p *scatterPool[VD, ED, Ctx]) serve(w int, tasks <-chan []shardSpan) {
	defer p.live.Done()
	for shards := range tasks {
		start := time.Now()
		p.runWorker(w, shards)
		p.done[w] = time.Now()
		p.busy[w] = p.done[w].Sub(start)
		p.wg.Done()
	}
}

// close stops the pool goroutines and returns once they have exited,
// releasing the graph, program and contexts they pin. It must not race
// with runBatch; a second call is a no-op.
func (p *scatterPool[VD, ED, Ctx]) close() {
	for _, ch := range p.tasks {
		close(ch)
	}
	p.tasks = nil
	p.live.Wait()
}

// recoverWorker converts a worker panic into that worker's error slot.
// It is deferred as a direct method call — a closure here would be
// heap-allocated per batch under gcshape stenciling.
func (p *scatterPool[VD, ED, Ctx]) recoverWorker(w int) {
	if r := recover(); r != nil {
		p.errs[w] = fmt.Errorf("gas: worker %d: panic: %v\n%s", w, r, truncatedStack())
	}
}

// runWorker drains shards for worker w, containing panics.
func (p *scatterPool[VD, ED, Ctx]) runWorker(w int, shards []shardSpan) {
	defer p.recoverWorker(w)
	if faultinject.Armed() {
		faultinject.Fire(faultinject.GasScatterWorker, w)
	}
	ctx := p.ctxs[w]
	for {
		i := int(p.cursor.Add(1)) - 1
		if i >= len(shards) {
			return
		}
		sh := shards[i]
		t0 := time.Now()
		p.prog.ScatterShard(p.g, sh.id, sh.edges, ctx, nil)
		p.shardSecs[sh.id] = time.Since(t0).Seconds()
	}
}

// runBatch executes one batch across the pool and returns the first
// worker error. Per-shard seconds land in shardSecs and per-worker
// busy/finish times in busy/done for the engine to aggregate.
func (p *scatterPool[VD, ED, Ctx]) runBatch(shards []shardSpan) error {
	p.cursor.Store(0)
	if p.workers == 1 {
		p.errs[0] = nil
		start := time.Now()
		p.runWorker(0, shards)
		p.done[0] = time.Now()
		p.busy[0] = p.done[0].Sub(start)
		return p.errs[0]
	}
	for w := 0; w < p.workers; w++ {
		p.errs[w] = nil
	}
	p.wg.Add(p.workers)
	for w := 0; w < p.workers; w++ {
		p.tasks[w] <- shards
	}
	p.wg.Wait()
	for _, err := range p.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// merger is the slice of the Program interface the shard executor needs
// at superstep end; every Program satisfies it.
type merger[Ctx any] interface {
	Merge(ctxs []Ctx)
}

// shardExec bundles the sharded execution state both engines embed:
// the plan, the pool, and the accumulated stats. For programs that are
// not ShardScatterers it stays inert (sharded == nil) and the engines
// fall back to their legacy per-edge paths.
type shardExec[VD, ED, Ctx any] struct {
	sharded     ShardScatterer[VD, ED, Ctx]
	boundary    BoundaryMerger[Ctx]
	merge       merger[Ctx]
	incremental bool
	plan        *shardPlan
	pool        *scatterPool[VD, ED, Ctx]
	stats       EngineStats
}

// newShardExec inspects the program's optional interfaces and, for
// sharded programs, builds the plan and pool. classes is the scatter
// order grouped into mutually independent sets (colour classes for the
// chromatic engine; one class of all edges for the synchronous one);
// coalesce allows merging classes into weight-bounded batches, which is
// only sound when the program never touches shared vertex data — i.e.
// when it is incremental and merges at boundaries.
func newShardExec[VD, ED, Ctx any](g *Graph[VD, ED], p any, ctxs []Ctx, workers int, classes [][]int32) *shardExec[VD, ED, Ctx] {
	x := &shardExec[VD, ED, Ctx]{}
	x.sharded, _ = p.(ShardScatterer[VD, ED, Ctx])
	x.boundary, _ = p.(BoundaryMerger[Ctx])
	x.merge, _ = p.(merger[Ctx])
	if ip, ok := p.(IncrementalProgram); ok {
		x.incremental = ip.Incremental()
	}
	if x.sharded == nil {
		return x
	}
	coalesce := x.incremental && x.boundary != nil
	x.plan = buildShardPlan(classes, edgeWeights(g, p), coalesce)
	x.pool = newScatterPool(g, x.sharded, ctxs, workers, x.plan.shards)
	x.stats.BatchBusy = make([]float64, len(x.plan.batches))
	x.stats.BatchMaxShard = make([]float64, len(x.plan.batches))
	return x
}

// PlanInfo sizes an engine's scatter schedule: what construction built
// from the graph. Batches and Shards are 0 for programs that scatter
// per edge.
type PlanInfo struct {
	Edges   int // edges in the graph
	Colors  int // mutually independent edge classes the order is grouped into
	Batches int // barrier-delimited scatter batches per superstep
	Shards  int // weight-balanced shards across all batches
}

func (x *shardExec[VD, ED, Ctx]) planInfo(edges, colors int) PlanInfo {
	info := PlanInfo{Edges: edges, Colors: colors}
	if x.plan != nil {
		info.Batches, info.Shards = len(x.plan.batches), x.plan.shards
	}
	return info
}

// close stops the scatter pool, if the program has one.
func (x *shardExec[VD, ED, Ctx]) close() {
	if x.pool != nil {
		x.pool.close()
	}
}

// numShards reports the plan's shard count (0 for non-sharded
// programs). Sharded programs size per-shard state (e.g. RNG streams)
// from it.
func (x *shardExec[VD, ED, Ctx]) numShards() int {
	if x.plan == nil {
		return 0
	}
	return x.plan.shards
}

// runScatter executes the full scatter schedule: every batch through
// the pool (or, under a StallPolicy, through the supervised fan-out),
// with a boundary merge after each batch when the program wants one.
func (x *shardExec[VD, ED, Ctx]) runScatter(g *Graph[VD, ED], ctxs []Ctx, m *Metrics, sp *StallPolicy) error {
	for bi := range x.plan.batches {
		shards := x.plan.batches[bi].shards
		if sp.enabled() {
			err := runSupervised(m, sp, "scatter", x.pool.workers, len(shards), func(worker, lo, hi int, beat *Beat) {
				faultinject.Fire(faultinject.GasScatterWorker, worker)
				ctx := ctxs[worker]
				for i := lo; i < hi; i++ {
					sh := shards[i]
					x.sharded.ScatterShard(g, sh.id, sh.edges, ctx, beat)
				}
			})
			if err != nil {
				return err
			}
		} else {
			if err := x.pool.runBatch(shards); err != nil {
				return err
			}
			x.observeBatch(bi, m)
		}
		if x.boundary != nil {
			if err := x.runBoundary(ctxs); err != nil {
				return err
			}
		}
	}
	return nil
}

// runBoundary folds buffered deltas at a batch boundary under the
// serial-time clock. The recover is open-coded — no safely closure — so
// a steady-state sweep with many batches stays allocation-free.
func (x *shardExec[VD, ED, Ctx]) runBoundary(ctxs []Ctx) (err error) {
	t0 := time.Now()
	defer func() {
		x.stats.SerialSeconds += time.Since(t0).Seconds()
		if p := recover(); p != nil {
			err = fmt.Errorf("gas: boundary merge panic: %v\n%s", p, truncatedStack())
		}
	}()
	x.boundary.MergeBoundary(ctxs)
	return nil
}

// observeBatch folds one batch's pool timings into the stats and the
// optional metrics: per-shard seconds into busy and critical-path rows,
// per-worker finish spread into barrier wait.
func (x *shardExec[VD, ED, Ctx]) observeBatch(bi int, m *Metrics) {
	p := x.pool
	var busy, maxShard float64
	for _, sh := range x.plan.batches[bi].shards {
		s := p.shardSecs[sh.id]
		busy += s
		if s > maxShard {
			maxShard = s
		}
	}
	x.stats.BusySeconds += busy
	x.stats.BatchBusy[bi] += busy
	x.stats.BatchMaxShard[bi] += maxShard

	if p.workers == 1 {
		if m != nil {
			m.WorkerBusy.Observe(p.busy[0].Seconds())
			m.BarrierWait.Observe(0)
		}
		return
	}
	var last time.Time
	for w := 0; w < p.workers; w++ {
		if p.done[w].After(last) {
			last = p.done[w]
		}
	}
	for w := 0; w < p.workers; w++ {
		wait := last.Sub(p.done[w]).Seconds()
		x.stats.BarrierSeconds += wait
		if m != nil {
			m.WorkerBusy.Observe(p.busy[w].Seconds())
			m.BarrierWait.Observe(wait)
		}
	}
}

// runMerge runs the program's superstep-end Merge single-threaded under
// the serial-time clock, with the same open-coded recover as
// runBoundary to keep the per-sweep path allocation-free.
func (x *shardExec[VD, ED, Ctx]) runMerge(ctxs []Ctx) (err error) {
	t0 := time.Now()
	defer func() {
		x.stats.SerialSeconds += time.Since(t0).Seconds()
		if p := recover(); p != nil {
			err = fmt.Errorf("gas: merge panic: %v\n%s", p, truncatedStack())
		}
	}()
	x.merge.Merge(ctxs)
	return nil
}

// snapshot returns a copy of the accumulated stats.
func (x *shardExec[VD, ED, Ctx]) snapshot() EngineStats { return x.stats.clone() }

// reset zeroes the accumulated stats in place.
func (x *shardExec[VD, ED, Ctx]) reset() {
	n := len(x.stats.BatchBusy)
	x.stats = EngineStats{}
	if n > 0 {
		x.stats.BatchBusy = make([]float64, n)
		x.stats.BatchMaxShard = make([]float64, n)
	}
}
