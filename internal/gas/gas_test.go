package gas

import "testing"

// degreeProgram computes every vertex's degree the only way the engine
// offers: scatter buffers +1 per endpoint in the worker's context, and
// Merge folds the buffers into the shared degree array. It also counts
// scatter visits and merges, and carries two hooks the resilience and
// supervision tests use to make a worker panic, hang or crawl.
type degreeProgram struct {
	degree        []int
	scatterTotal  int
	merges        int
	mergedCtxSeen int

	onEdge  func(eid int32) // called before each edge is scattered
	onMerge func()          // called at the top of every Merge
}

type degCtx struct {
	degree []int
	visits int
}

func (p *degreeProgram) NewCtx(int) *degCtx { return &degCtx{degree: make([]int, len(p.degree))} }

func (p *degreeProgram) EdgeWeight(*Graph[string], int32, *Edge[string]) int64 { return 1 }

func (p *degreeProgram) ScatterShard(g *Graph[string], shard int, edges []int32, ctx *degCtx, beat *Beat) {
	for _, eid := range edges {
		if !beat.Next() {
			return
		}
		if p.onEdge != nil {
			p.onEdge(eid)
		}
		e := &g.Edges[eid]
		ctx.degree[e.Src]++
		ctx.degree[e.Dst]++
		ctx.visits++
	}
}

func (p *degreeProgram) Merge(ctxs []*degCtx) {
	if p.onMerge != nil {
		p.onMerge()
	}
	p.merges++
	p.mergedCtxSeen = len(ctxs)
	for _, c := range ctxs {
		for v, d := range c.degree {
			p.degree[v] += d
			c.degree[v] = 0
		}
		p.scatterTotal += c.visits
		c.visits = 0
	}
}

// testDegrees are the vertex degrees of buildTestGraph.
var testDegrees = []int{3, 2, 2, 1, 0}

// buildTestGraph is a triangle with a tail and an isolated vertex. Its
// greedy colouring is {e0}, {e1, e3}, {e2}: three batches, four
// single-edge shards.
func buildTestGraph() *Graph[string] {
	g := NewGraph[string](5)
	g.AddEdge(0, 1, "a")
	g.AddEdge(1, 2, "b")
	g.AddEdge(2, 0, "c")
	g.AddEdge(3, 0, "d")
	// vertex 4 isolated
	return g
}

func newDegreeProgram() *degreeProgram { return &degreeProgram{degree: make([]int, 5)} }

// requireDegrees fails unless the merged degrees are steps × the test
// graph's: every edge scattered exactly once per superstep and every
// buffered delta folded exactly once.
func requireDegrees(t *testing.T, p *degreeProgram, steps int) {
	t.Helper()
	for v, want := range testDegrees {
		if p.degree[v] != want*steps {
			t.Fatalf("degree[%d] = %d after %d steps, want %d", v, p.degree[v], steps, want*steps)
		}
	}
}

func TestEngineDegrees(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		g := buildTestGraph()
		p := newDegreeProgram()
		e := NewEngine(g, p, workers)
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		requireDegrees(t, p, 1)
		if p.scatterTotal != len(g.Edges) {
			t.Fatalf("workers=%d: scatter visited %d edges, want %d", workers, p.scatterTotal, len(g.Edges))
		}
		if p.mergedCtxSeen != e.Workers() {
			t.Fatalf("workers=%d: merge saw %d contexts", workers, p.mergedCtxSeen)
		}
		if plan := e.Plan(); plan != (PlanInfo{Edges: 4, Colors: 3, Batches: 3, Shards: 4}) {
			t.Fatalf("workers=%d: plan %+v", workers, plan)
		}
		e.Close()
	}
}

func TestEngineMultipleSteps(t *testing.T) {
	g := buildTestGraph()
	p := newDegreeProgram()
	e := NewEngine(g, p, 2)
	defer e.Close()
	for i := 0; i < 3; i++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	requireDegrees(t, p, 3)
	if p.scatterTotal != 3*len(g.Edges) {
		t.Fatalf("3 steps scattered %d edge visits, want %d", p.scatterTotal, 3*len(g.Edges))
	}
}

// An edgeless graph has no batch to scatter or merge; Step still
// succeeds and counts the superstep.
func TestEngineEdgelessGraph(t *testing.T) {
	p := newDegreeProgram()
	e := NewEngine(NewGraph[string](5), p, 2)
	defer e.Close()
	if err := e.Step(); err != nil {
		t.Fatal(err)
	}
	if p.merges != 0 || e.NumShards() != 0 || e.Stats().Supersteps != 1 {
		t.Fatalf("merges %d, shards %d, stats %+v", p.merges, e.NumShards(), e.Stats())
	}
}

func TestAddEdgePanics(t *testing.T) {
	g := NewGraph[string](2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range edge did not panic")
		}
	}()
	g.AddEdge(0, 5, "x")
}

func TestAddEdgeAfterFinalizePanics(t *testing.T) {
	g := NewGraph[string](2)
	g.Finalize()
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge after Finalize did not panic")
		}
	}()
	g.AddEdge(0, 1, "x")
}
