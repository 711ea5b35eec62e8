package gas

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// --- plan construction -------------------------------------------------

func planWeights(n int) []int64 {
	w := make([]int64, n)
	for i := range w {
		w[i] = 1 + int64(i%13)
	}
	return w
}

func TestBuildShardPlanCoversEveryEdgeInOrder(t *testing.T) {
	const n = 500
	class := make([]int32, n)
	for i := range class {
		class[i] = int32(i)
	}
	plan := buildShardPlan([][]int32{class}, planWeights(n))

	if len(plan.batches) != 1 {
		t.Fatalf("one class should make one batch, got %d", len(plan.batches))
	}
	var flat []int32
	seen := map[int]bool{}
	for _, sh := range plan.batches[0].shards {
		if seen[sh.id] {
			t.Fatalf("shard id %d appears twice", sh.id)
		}
		seen[sh.id] = true
		flat = append(flat, sh.edges...)
	}
	if len(flat) != n {
		t.Fatalf("plan covers %d edges, want %d", len(flat), n)
	}
	for i, eid := range flat {
		if eid != int32(i) {
			t.Fatalf("edge order broken at %d: got %d", i, eid)
		}
	}
	if plan.shards != len(plan.batches[0].shards) {
		t.Fatalf("plan.shards %d != shard count %d", plan.shards, len(plan.batches[0].shards))
	}
}

func TestBuildShardPlanBalancesWeight(t *testing.T) {
	const n = 500
	class := make([]int32, n)
	for i := range class {
		class[i] = int32(i)
	}
	weights := planWeights(n)
	var total, maxEdge int64
	for _, w := range weights {
		total += w
		if w > maxEdge {
			maxEdge = w
		}
	}
	plan := buildShardPlan([][]int32{class}, weights)

	ns := len(plan.batches[0].shards)
	if ns != shardsPerBatch {
		t.Fatalf("single class split into %d shards, want %d", ns, shardsPerBatch)
	}
	ideal := total / int64(ns)
	for _, sh := range plan.batches[0].shards {
		var w int64
		for _, eid := range sh.edges {
			w += weights[eid]
		}
		if w > 2*ideal+maxEdge {
			t.Fatalf("shard %d weight %d far above ideal %d", sh.id, w, ideal)
		}
	}
}

func TestBuildShardPlanCoalescesClasses(t *testing.T) {
	const classes, per = 40, 5
	var cls [][]int32
	eid := int32(0)
	for c := 0; c < classes; c++ {
		var class []int32
		for i := 0; i < per; i++ {
			class = append(class, eid)
			eid++
		}
		cls = append(cls, class)
	}
	weights := make([]int64, int(eid))
	for i := range weights {
		weights[i] = 1
	}

	tight := buildShardPlan(cls, weights)
	if len(tight.batches) < 2 || len(tight.batches) > maxScatterBatches+1 {
		t.Fatalf("coalesced plan has %d batches, want 2..%d", len(tight.batches), maxScatterBatches+1)
	}
	// Coalescing must preserve the global edge order.
	var flat []int32
	for _, b := range tight.batches {
		for _, sh := range b.shards {
			flat = append(flat, sh.edges...)
		}
	}
	if len(flat) != int(eid) {
		t.Fatalf("coalesced plan covers %d edges, want %d", len(flat), eid)
	}
	for i, e := range flat {
		if e != int32(i) {
			t.Fatalf("coalesced edge order broken at %d: got %d", i, e)
		}
	}
}

// --- sharded engine execution ------------------------------------------

type shED struct{ cost int64 }

type shCtx struct{ scatters int }

// shardProg records, per edge, which shard scattered it — the full
// schedule fingerprint. Writes race-free: each edge belongs to exactly
// one shard, and a shard runs on exactly one worker per batch.
type shardProg struct {
	shardOf []int64
	merges  int
}

func (p *shardProg) NewCtx(int) *shCtx { return &shCtx{} }
func (p *shardProg) Merge([]*shCtx)    { p.merges++ }
func (p *shardProg) EdgeWeight(g *Graph[shED], eid int32, e *Edge[shED]) int64 {
	return e.Data.cost
}
func (p *shardProg) ScatterShard(g *Graph[shED], shard int, edges []int32, ctx *shCtx, beat *Beat) {
	for _, eid := range edges {
		if !beat.Next() {
			return
		}
		p.shardOf[eid] = int64(shard)
		ctx.scatters++
	}
}

func shardTestGraph() *Graph[shED] {
	const nv, ne = 60, 400
	g := NewGraph[shED](nv)
	for i := 0; i < ne; i++ {
		g.AddEdge(int32(i%nv), int32((i*7+1)%nv), shED{cost: 1 + int64(i%13)})
	}
	return g
}

func runShardProg(t *testing.T, workers int) ([]int64, int, EngineStats) {
	t.Helper()
	g := shardTestGraph()
	p := &shardProg{shardOf: make([]int64, len(g.Edges))}
	eng := NewEngine(g, p, workers)
	defer eng.Close()
	for i := 0; i < 2; i++ {
		if err := eng.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return p.shardOf, eng.NumShards(), eng.Stats()
}

// TestShardScheduleIndependentOfWorkers pins the property the parallel
// sampler's determinism rests on: the shard plan — which shard owns
// which edge, and how many shards exist — is a function of the graph
// alone, never of the worker count.
func TestShardScheduleIndependentOfWorkers(t *testing.T) {
	ref, refShards, _ := runShardProg(t, 1)
	if refShards < 2 {
		t.Fatalf("want a multi-shard plan, got %d", refShards)
	}
	for _, w := range []int{2, 4, 8} {
		got, shards, _ := runShardProg(t, w)
		if shards != refShards {
			t.Fatalf("shard count changed with workers: %d at w=1, %d at w=%d", refShards, shards, w)
		}
		for eid := range ref {
			if got[eid] != ref[eid] {
				t.Fatalf("edge %d owned by shard %d at w=1 but %d at w=%d", eid, ref[eid], got[eid], w)
			}
		}
	}
}

func TestShardEngineStats(t *testing.T) {
	_, _, stats := runShardProg(t, 2)
	if stats.Supersteps != 2 {
		t.Fatalf("Supersteps = %d, want 2", stats.Supersteps)
	}
	if stats.BusySeconds <= 0 {
		t.Fatalf("BusySeconds = %v, want > 0", stats.BusySeconds)
	}
	if len(stats.BatchBusy) != len(stats.BatchMaxShard) || len(stats.BatchBusy) == 0 {
		t.Fatalf("batch rows: busy %d, maxShard %d", len(stats.BatchBusy), len(stats.BatchMaxShard))
	}
	// The projection must be monotone non-increasing in workers and never
	// better than the critical path.
	prev := stats.ProjectedSeconds(1)
	if prev < stats.SerialSeconds {
		t.Fatalf("projection %v below serial floor %v", prev, stats.SerialSeconds)
	}
	for _, w := range []int{2, 4, 8, 64} {
		cur := stats.ProjectedSeconds(w)
		if cur > prev+1e-12 {
			t.Fatalf("projection increased with workers: %v at fewer, %v at %d", prev, cur, w)
		}
		prev = cur
	}

	g := shardTestGraph()
	p := &shardProg{shardOf: make([]int64, len(g.Edges))}
	eng := NewEngine(g, p, 2)
	defer eng.Close()
	if err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	eng.ResetStats()
	s := eng.Stats()
	if s.Supersteps != 0 || s.BusySeconds != 0 || s.BarrierSeconds != 0 || s.SerialSeconds != 0 {
		t.Fatalf("ResetStats left residue: %+v", s)
	}
}

// Merge runs once after every scatter batch — never per colour class,
// never a second time at superstep end.
func TestBoundaryMergeRunsPerBatch(t *testing.T) {
	g := shardTestGraph()
	p := &shardProg{shardOf: make([]int64, len(g.Edges))}
	eng := NewEngine(g, p, 2)
	defer eng.Close()
	if err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	plan := eng.Plan()
	if plan.Batches < 2 {
		t.Fatalf("want multiple batches, got %d", plan.Batches)
	}
	if plan.Batches > maxScatterBatches+1 || plan.Batches >= plan.Colors {
		t.Fatalf("coalescing failed: %d batches from %d colours (maxScatterBatches=%d)", plan.Batches, plan.Colors, maxScatterBatches)
	}
	if p.merges != plan.Batches {
		t.Fatalf("Merge ran %d times for %d batches", p.merges, plan.Batches)
	}
	if rows := len(eng.Stats().BatchBusy); rows != plan.Batches {
		t.Fatalf("%d stats rows for %d batches", rows, plan.Batches)
	}
}

// panicProg blows up in one shard; the pool must surface it as an error
// from Step on both the inline and the goroutine path.
type panicProg struct{ shardProg }

func (p *panicProg) ScatterShard(g *Graph[shED], shard int, edges []int32, ctx *shCtx, beat *Beat) {
	if shard == 3 {
		panic("shard 3 exploded")
	}
	p.shardProg.ScatterShard(g, shard, edges, ctx, beat)
}

func TestShardWorkerPanicBecomesError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		g := shardTestGraph()
		p := &panicProg{}
		p.shardOf = make([]int64, len(g.Edges))
		eng := NewEngine(g, p, workers)
		err := eng.Step()
		eng.Close()
		if err == nil || !strings.Contains(err.Error(), "shard 3 exploded") {
			t.Fatalf("workers=%d: want panic error, got %v", workers, err)
		}
	}
}

// Close must take the pool's goroutines down, stay callable, and turn
// later Steps into ErrClosed instead of a send on a closed channel.
func TestEngineCloseStopsPool(t *testing.T) {
	before := runtime.NumGoroutine()
	g := shardTestGraph()
	p := &shardProg{shardOf: make([]int64, len(g.Edges))}
	eng := NewEngine(g, p, 4)
	if err := eng.Step(); err != nil {
		t.Fatal(err)
	}
	if runtime.NumGoroutine() < before+4 {
		t.Fatal("no 4-worker pool to close")
	}
	eng.Close()
	eng.Close()
	// Close waited for the workers to return; the runtime may take a
	// moment longer to stop counting them.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before the engine, %d after Close", before, after)
	}
	if err := eng.Step(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Step after Close returned %v, want ErrClosed", err)
	}
}
