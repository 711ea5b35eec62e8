package gas

import (
	"slices"
	"sync"
	"testing"

	"github.com/cold-diffusion/cold/internal/rng"
)

// referenceColorEdges is the greedy colouring as first written: for
// every edge, collect the colours of all coloured edges at both
// endpoints into a map by re-walking their incidence lists, then take
// the smallest colour not in it. Quadratic in vertex degree, but
// obviously correct — the oracle ColorEdges must match class for class,
// order for order.
func referenceColorEdges[VD, ED any](g *Graph[VD, ED]) [][]int32 {
	edgeColor := make([]int, len(g.Edges))
	for i := range edgeColor {
		edgeColor[i] = -1
	}
	var classes [][]int32
	used := make(map[int]bool)
	for id := range g.Edges {
		e := &g.Edges[id]
		for k := range used {
			delete(used, k)
		}
		for _, nb := range g.incident[e.Src] {
			if c := edgeColor[nb]; c >= 0 {
				used[c] = true
			}
		}
		for _, nb := range g.incident[e.Dst] {
			if c := edgeColor[nb]; c >= 0 {
				used[c] = true
			}
		}
		color := 0
		for used[color] {
			color++
		}
		edgeColor[id] = color
		for color >= len(classes) {
			classes = append(classes, nil)
		}
		classes[color] = append(classes[color], int32(id))
	}
	return classes
}

// requireSameClasses fails unless got equals want class for class and,
// within each class, edge for edge.
func requireSameClasses(t *testing.T, got, want [][]int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d colour classes, reference has %d", len(got), len(want))
	}
	for c := range want {
		if !slices.Equal(got[c], want[c]) {
			t.Fatalf("colour class %d differs from the reference greedy:\n got %v\nwant %v", c, got[c], want[c])
		}
	}
}

// randomMultigraph draws edges uniformly over the first n-isolated
// vertices, keeping self-loops and parallel edges; the last `isolated`
// vertices get no edge.
func randomMultigraph(seed uint64, n, isolated, edges int) *Graph[int, string] {
	r := rng.New(seed)
	g := NewGraph[int, string](make([]int, n))
	for i := 0; i < edges; i++ {
		g.AddEdge(int32(r.Intn(n-isolated)), int32(r.Intn(n-isolated)), "")
	}
	g.Finalize()
	return g
}

// hubGraph is shaped like the Fig 4 layout: `users` low-degree vertices
// each joined to a random subset of `hubs` time-slice vertices, so every
// hub has degree ≈ E/hubs. Edges come grouped by user, then hub, like
// buildColdGraph's canonical order.
func hubGraph(seed uint64, users, hubs int, density float64) *Graph[int, string] {
	r := rng.New(seed)
	g := NewGraph[int, string](make([]int, users+hubs))
	for u := 0; u < users; u++ {
		for h := 0; h < hubs; h++ {
			if r.Float64() < density {
				g.AddEdge(int32(u), int32(users+h), "")
			}
		}
	}
	g.Finalize()
	return g
}

func TestColorEdgesMatchesReferenceGreedy(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		// Dense enough that colours spill past one 64-bit word.
		g := randomMultigraph(seed, 12+int(seed)*3, 3, 400+int(seed)*150)
		requireSameClasses(t, ColorEdges(g), referenceColorEdges(g))
	}
	empty := NewGraph[int, string](make([]int, 4))
	empty.Finalize()
	if classes := ColorEdges(empty); len(classes) != 0 {
		t.Fatalf("edgeless graph coloured into %d classes", len(classes))
	}
}

func TestColorEdgesMatchesReferenceOnHubGraph(t *testing.T) {
	g := hubGraph(11, 400, 6, 0.7)
	got := ColorEdges(g)
	requireSameClasses(t, got, referenceColorEdges(g))
	// A hub's edges all need distinct colours.
	hubDegree := len(g.Incident(int32(len(g.Vertices) - 1)))
	if len(got) < hubDegree {
		t.Fatalf("%d colours for a hub of degree %d", len(got), hubDegree)
	}
}

func TestColorEdgesIsProper(t *testing.T) {
	g := randomMultigraph(7, 30, 0, 120)
	classes := ColorEdges(g)
	seenEdges := 0
	for _, class := range classes {
		// Within a class, no two edges share an endpoint.
		touched := make(map[int32]bool)
		for _, id := range class {
			e := g.Edges[id]
			if touched[e.Src] || touched[e.Dst] {
				t.Fatalf("colour class has two edges sharing a vertex")
			}
			touched[e.Src] = true
			touched[e.Dst] = true
			seenEdges++
		}
	}
	if seenEdges != len(g.Edges) {
		t.Fatalf("colouring covered %d of %d edges", seenEdges, len(g.Edges))
	}
	maxDegree := 0
	for v := range g.Vertices {
		maxDegree = max(maxDegree, len(g.Incident(int32(v))))
	}
	if bound := 2*maxDegree - 1; len(classes) > bound {
		t.Fatalf("greedy used %d colours, above the 2Δ−1 = %d bound", len(classes), bound)
	}
}

// BenchmarkNewChromaticEngineHub times engine construction — incidence
// index, colouring, shard plan, worker pool — on a graph the size and
// shape of the benchmark's train_xl corpus: ≈145 K edges on 48 hub
// vertices. A quadratic step shows as a multi-second iteration.
func BenchmarkNewChromaticEngineHub(b *testing.B) {
	const users, hubs = 3800, 48
	src := hubGraph(1, users, hubs, 0.8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := NewGraph[shVD, shED](make([]shVD, users+hubs))
		for id := range src.Edges {
			e := &src.Edges[id]
			g.AddEdge(e.Src, e.Dst, shED{cost: 1 + int64(id%13)})
		}
		p := &shardProg{shardOf: make([]int64, len(g.Edges))}
		b.StartTimer()
		e := NewChromaticEngine[shVD, shED, struct{}, *shCtx](g, p, 4)
		if e.Colors() < hubs {
			b.Fatalf("%d colours", e.Colors())
		}
		e.Close()
	}
}

// vertexMutatingProgram writes to BOTH endpoint vertices in Scatter —
// only safe under edge-consistent scheduling. The race detector would
// flag a violation; the final counts check correctness.
type vertexMutatingProgram struct {
	mu     sync.Mutex
	merged int
}

func (p *vertexMutatingProgram) NewCtx(worker int) int { return worker }

func (p *vertexMutatingProgram) Gather(g *Graph[int, int], v int32, e *Edge[int]) int { return 0 }

func (p *vertexMutatingProgram) Sum(a, b int) int { return a + b }

func (p *vertexMutatingProgram) Apply(g *Graph[int, int], v int32, acc int, has bool) {}

func (p *vertexMutatingProgram) Scatter(g *Graph[int, int], eid int32, e *Edge[int], ctx int) {
	// Unsynchronised read-modify-write on both endpoints.
	g.Vertices[e.Src]++
	g.Vertices[e.Dst]++
}

func (p *vertexMutatingProgram) Merge(ctxs []int) {
	p.mu.Lock()
	p.merged++
	p.mu.Unlock()
}

func TestChromaticEngineVertexMutationSafe(t *testing.T) {
	r := rng.New(9)
	n := 40
	g := NewGraph[int, int](make([]int, n))
	degree := make([]int, n)
	for i := 0; i < 200; i++ {
		a, b := int32(r.Intn(n)), int32(r.Intn(n))
		if a != b {
			g.AddEdge(a, b, 0)
			degree[a]++
			degree[b]++
		}
	}
	g.Finalize()
	p := &vertexMutatingProgram{}
	e := NewChromaticEngine[int, int, int, int](g, p, 4)
	if e.Colors() < 1 {
		t.Fatal("no colour classes")
	}
	const steps = 3
	for i := 0; i < steps; i++ {
		e.Step()
	}
	// Every vertex must have been incremented exactly degree × steps
	// times — lost updates would show as smaller counts.
	for v := 0; v < n; v++ {
		if g.Vertices[v] != degree[v]*steps {
			t.Fatalf("vertex %d count %d, want %d (lost updates)", v, g.Vertices[v], degree[v]*steps)
		}
	}
	if p.merged != steps {
		t.Fatalf("merge ran %d times", p.merged)
	}
}

func TestChromaticMatchesSyncOnEdgeOnlyProgram(t *testing.T) {
	// For a program that only mutates edge data, the chromatic engine
	// must produce the same result as the synchronous engine with one
	// worker (scatter order differs across classes, so compare against a
	// deterministic aggregate: the multiset of edge values).
	build := func() *Graph[int, uint64] {
		r := rng.New(3)
		n := 20
		g := NewGraph[int, uint64](make([]int, n))
		for i := 0; i < 60; i++ {
			a, b := int32(r.Intn(n)), int32(r.Intn(n))
			if a != b {
				g.AddEdge(a, b, uint64(i))
			}
		}
		g.Finalize()
		return g
	}
	// Deterministic edge transform: data = data*3+1 per step.
	type detProgram struct{}
	_ = detProgram{}
	p := &tripler{}
	g1 := build()
	e1 := NewEngine[int, uint64, int, int](g1, p, 2)
	e1.Step()
	e1.Step()
	g2 := build()
	e2 := NewChromaticEngine[int, uint64, int, int](g2, p, 2)
	e2.Step()
	e2.Step()
	for i := range g1.Edges {
		if g1.Edges[i].Data != g2.Edges[i].Data {
			t.Fatalf("edge %d differs: %d vs %d", i, g1.Edges[i].Data, g2.Edges[i].Data)
		}
	}
}

type tripler struct{}

func (*tripler) NewCtx(worker int) int                                      { return 0 }
func (*tripler) Gather(g *Graph[int, uint64], v int32, e *Edge[uint64]) int { return 1 }
func (*tripler) Sum(a, b int) int                                           { return a + b }
func (*tripler) Apply(g *Graph[int, uint64], v int32, acc int, has bool)    {}
func (*tripler) Merge(ctxs []int)                                           {}
func (*tripler) Scatter(g *Graph[int, uint64], eid int32, e *Edge[uint64], ctx int) {
	e.Data = e.Data*3 + 1
}
