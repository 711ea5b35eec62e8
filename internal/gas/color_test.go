package gas

import (
	"slices"
	"testing"

	"github.com/cold-diffusion/cold/internal/rng"
)

// incidence lists, per vertex, the ids of the edges touching it — the
// oracle's own adjacency, built without the code under test.
func incidence[ED any](g *Graph[ED]) [][]int32 {
	inc := make([][]int32, g.Vertices)
	for id, e := range g.Edges {
		inc[e.Src] = append(inc[e.Src], int32(id))
		if e.Dst != e.Src {
			inc[e.Dst] = append(inc[e.Dst], int32(id))
		}
	}
	return inc
}

// referenceColorEdges is the greedy colouring as first written: for
// every edge, collect the colours of all coloured edges at both
// endpoints into a map by re-walking their incidence lists, then take
// the smallest colour not in it. Quadratic in vertex degree, but
// obviously correct — the oracle ColorEdges must match class for class,
// order for order.
func referenceColorEdges[ED any](g *Graph[ED]) [][]int32 {
	inc := incidence(g)
	edgeColor := make([]int, len(g.Edges))
	for i := range edgeColor {
		edgeColor[i] = -1
	}
	var classes [][]int32
	used := make(map[int]bool)
	for id := range g.Edges {
		e := &g.Edges[id]
		clear(used)
		for _, v := range []int32{e.Src, e.Dst} {
			for _, nb := range inc[v] {
				if c := edgeColor[nb]; c >= 0 {
					used[c] = true
				}
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
func randomMultigraph(seed uint64, n, isolated, edges int) *Graph[string] {
	r := rng.New(seed)
	g := NewGraph[string](n)
	for i := 0; i < edges; i++ {
		g.AddEdge(int32(r.Intn(n-isolated)), int32(r.Intn(n-isolated)), "")
	}
	return g
}

// hubGraph is shaped like the Fig 4 layout: `users` low-degree vertices
// each joined to a random subset of `hubs` time-slice vertices, so every
// hub has degree ≈ E/hubs. Edges come grouped by user, then hub, like
// buildColdGraph's canonical order.
func hubGraph(seed uint64, users, hubs int, density float64) *Graph[string] {
	r := rng.New(seed)
	g := NewGraph[string](users + hubs)
	for u := 0; u < users; u++ {
		for h := 0; h < hubs; h++ {
			if r.Float64() < density {
				g.AddEdge(int32(u), int32(users+h), "")
			}
		}
	}
	return g
}

func TestColorEdgesMatchesReferenceGreedy(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		// Dense enough that colours spill past one 64-bit word.
		g := randomMultigraph(seed, 12+int(seed)*3, 3, 400+int(seed)*150)
		requireSameClasses(t, ColorEdges(g), referenceColorEdges(g))
	}
	if classes := ColorEdges(NewGraph[string](4)); len(classes) != 0 {
		t.Fatalf("edgeless graph coloured into %d classes", len(classes))
	}
}

func TestColorEdgesMatchesReferenceOnHubGraph(t *testing.T) {
	g := hubGraph(11, 400, 6, 0.7)
	got := ColorEdges(g)
	requireSameClasses(t, got, referenceColorEdges(g))
	// A hub's edges all need distinct colours.
	hubDegree := len(incidence(g)[g.Vertices-1])
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
	for _, inc := range incidence(g) {
		maxDegree = max(maxDegree, len(inc))
	}
	if bound := 2*maxDegree - 1; len(classes) > bound {
		t.Fatalf("greedy used %d colours, above the 2Δ−1 = %d bound", len(classes), bound)
	}
}

// BenchmarkNewEngineHub times engine construction — colouring, shard
// plan, worker pool — on a graph the size and shape of the benchmark's
// train_xl corpus: ≈145 K edges on 48 hub vertices. A quadratic step
// shows as a multi-second iteration.
func BenchmarkNewEngineHub(b *testing.B) {
	const users, hubs = 3800, 48
	src := hubGraph(1, users, hubs, 0.8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := NewGraph[shED](users + hubs)
		for id := range src.Edges {
			e := &src.Edges[id]
			g.AddEdge(e.Src, e.Dst, shED{cost: 1 + int64(id%13)})
		}
		p := &shardProg{shardOf: make([]int64, len(g.Edges))}
		b.StartTimer()
		e := NewEngine(g, p, 4)
		if e.Plan().Colors < hubs {
			b.Fatalf("%d colours", e.Plan().Colors)
		}
		e.Close()
	}
}
