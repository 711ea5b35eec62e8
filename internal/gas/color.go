package gas

import "math/bits"

// ColorEdges assigns each edge the smallest colour not used by another
// edge at either endpoint, visiting edges in id order (greedy edge
// colouring; at most 2Δ−1 colours), and returns the edge ids of every
// colour class in ascending order. The classes fix the engine's scatter
// order — and through it the shard plan and every program's per-shard
// random streams — so the result is pinned to exactly this greedy, edge
// for edge.
//
// Each vertex keeps the set of colours its edges hold as a bitset grown
// on demand; an edge's colour is the first zero bit of used[src] |
// used[dst]. That is O(E·Δ/64) word operations. Walking both endpoints'
// incidence lists per edge instead would be Σ_v deg(v)² — quadratic on
// the Fig 4 layout, whose time-slice vertices are hubs of degree ≈ E/T.
func ColorEdges[ED any](g *Graph[ED]) [][]int32 {
	used := make([][]uint64, g.Vertices)
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
