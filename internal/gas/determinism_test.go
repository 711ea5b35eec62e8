package gas

import (
	"slices"
	"testing"

	"github.com/cold-diffusion/cold/internal/rng"
)

// stochasticProgram mutates edge data with per-shard RNG streams — the
// shape of the COLD sampler — so these tests pin down that the engine's
// output is a function of (graph, seed) alone, however many workers
// race over the shards.
type stochasticProgram struct {
	streams []*rng.RNG
}

func (p *stochasticProgram) NewCtx(int) struct{} { return struct{}{} }

func (p *stochasticProgram) EdgeWeight(*Graph[uint64], int32, *Edge[uint64]) int64 { return 1 }

func (p *stochasticProgram) ScatterShard(g *Graph[uint64], shard int, edges []int32, _ struct{}, beat *Beat) {
	r := p.streams[shard]
	for _, eid := range edges {
		if !beat.Next() {
			return
		}
		g.Edges[eid].Data ^= r.Uint64()
	}
}

func (p *stochasticProgram) Merge([]struct{}) {}

func runStochastic(t *testing.T, workers, steps int) []uint64 {
	t.Helper()
	r := rng.New(3)
	const n = 40
	g := NewGraph[uint64](n)
	for i := 0; i < 120; i++ {
		a, b := int32(r.Intn(n)), int32(r.Intn(n))
		if a != b {
			g.AddEdge(a, b, r.Uint64())
		}
	}
	p := &stochasticProgram{}
	e := NewEngine(g, p, workers)
	defer e.Close()
	for s := 0; s < e.NumShards(); s++ {
		p.streams = append(p.streams, rng.New(5+uint64(s)*7919))
	}
	for i := 0; i < steps; i++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]uint64, len(g.Edges))
	for i := range g.Edges {
		out[i] = g.Edges[i].Data
	}
	return out
}

// Identical runs agree, and so do runs at different worker counts: the
// streams are keyed by shard, and the shard plan ignores the pool size.
func TestEngineDeterministicForFixedWorkers(t *testing.T) {
	ref := runStochastic(t, 1, 5)
	for _, workers := range []int{1, 2, 4} {
		a := runStochastic(t, workers, 5)
		b := runStochastic(t, workers, 5)
		if !slices.Equal(a, b) {
			t.Fatalf("workers=%d: identical runs diverged", workers)
		}
		if !slices.Equal(a, ref) {
			t.Fatalf("workers=%d: output differs from the 1-worker run", workers)
		}
	}
}
