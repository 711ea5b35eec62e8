package core

import (
	"runtime"
	"time"

	"github.com/cold-diffusion/cold/internal/corpus"
	"github.com/cold-diffusion/cold/internal/gas"
)

// SweepBench is the result of timing repeated Gibbs sweeps of one sampler
// configuration. cmd/coldbench serialises it into the machine-readable
// benchmark record that tracks the sampler's perf trajectory across PRs.
//
// The phase-breakdown fields (busy/barrier/serial-merge) are populated
// only for the parallel sampler via BenchParallelSweeps; for the serial
// sampler they are zero and omitted from JSON.
type SweepBench struct {
	Workers        int     `json:"workers"`
	Sweeps         int     `json:"sweeps"`
	Seconds        float64 `json:"seconds"`
	SweepsPerSec   float64 `json:"sweeps_per_sec"`
	PostsPerSec    float64 `json:"posts_per_sec"`
	TokensPerSec   float64 `json:"tokens_per_sec"`
	LinksPerSec    float64 `json:"links_per_sec"`
	AllocsPerSweep float64 `json:"allocs_per_sweep"`
	BytesPerSweep  float64 `json:"bytes_per_sweep"`

	// BusySeconds is summed per-shard scatter execution time
	// (cold_gas_worker_busy_seconds); BarrierSeconds is summed
	// per-worker wait at batch barriers (cold_gas_barrier_wait_seconds);
	// SerialMergeSeconds is single-threaded merge time.
	// BarrierBusyRatio = barrier / busy — the partitioning-skew figure;
	// near 0 means balanced shards, near (workers-1) means one shard
	// serialised the phase.
	BusySeconds        float64 `json:"busy_seconds,omitempty"`
	BarrierSeconds     float64 `json:"barrier_seconds,omitempty"`
	SerialMergeSeconds float64 `json:"serial_merge_seconds,omitempty"`
	BarrierBusyRatio   float64 `json:"barrier_busy_ratio,omitempty"`
}

// BenchSweeps runs `warmup` untimed Gibbs sweeps followed by `sweeps`
// timed ones and reports throughput and per-sweep heap allocation. The
// sampler is serial for cfg.Workers <= 1 and the parallel GAS sampler
// otherwise, exactly as in training. Allocation figures come from the
// runtime's allocator counters, so run them on an otherwise quiet
// process for clean numbers.
func BenchSweeps(data *corpus.Dataset, cfg Config, warmup, sweeps int) (SweepBench, error) {
	cfg, err := validateTrainInputs(data, cfg)
	if err != nil {
		return SweepBench{}, err
	}
	smp, err := newSweeper(data, cfg, nil, nil, nil)
	if err != nil {
		return SweepBench{}, err
	}
	defer smp.close()
	return benchSweeper(smp, data, cfg, warmup, sweeps)
}

// BenchParallelSweeps is BenchSweeps forced onto the parallel GAS
// sampler (even at Workers == 1, where newSweeper would pick the serial
// one) and additionally returns the engine's accumulated scatter
// timing. The 1-worker parallel leg is the measurement anchor for
// scaling analysis: the shard plan and sampled chain are identical at
// every worker count, and its per-shard timings are unpolluted by
// preemption between workers, so gas.EngineStats.ProjectedSeconds(w)
// projects the same schedule onto any worker count.
func BenchParallelSweeps(data *corpus.Dataset, cfg Config, warmup, sweeps int) (SweepBench, gas.EngineStats, error) {
	cfg, err := validateTrainInputs(data, cfg)
	if err != nil {
		return SweepBench{}, gas.EngineStats{}, err
	}
	smp, err := newParallelSampler(data, cfg, nil, nil, nil)
	if err != nil {
		return SweepBench{}, gas.EngineStats{}, err
	}
	defer smp.close()
	for i := 0; i < warmup; i++ {
		if err := smp.sweep(); err != nil {
			return SweepBench{}, gas.EngineStats{}, err
		}
	}
	smp.resetEngineStats()
	bench, err := benchSweeper(smp, data, cfg, 0, sweeps)
	if err != nil {
		return SweepBench{}, gas.EngineStats{}, err
	}
	stats := smp.engineStats()
	bench.BusySeconds = stats.BusySeconds
	bench.BarrierSeconds = stats.BarrierSeconds
	bench.SerialMergeSeconds = stats.SerialSeconds
	if stats.BusySeconds > 0 {
		bench.BarrierBusyRatio = stats.BarrierSeconds / stats.BusySeconds
	}
	return bench, stats, nil
}

func benchSweeper(smp sweeper, data *corpus.Dataset, cfg Config, warmup, sweeps int) (SweepBench, error) {
	if sweeps < 1 {
		sweeps = 1
	}
	for i := 0; i < warmup; i++ {
		if err := smp.sweep(); err != nil {
			return SweepBench{}, err
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < sweeps; i++ {
		if err := smp.sweep(); err != nil {
			return SweepBench{}, err
		}
	}
	secs := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)

	tokens := 0
	for j := range data.Posts {
		tokens += data.Posts[j].Words.Len()
	}
	links := 0
	if cfg.UseLinks {
		links = len(data.Links)
	}
	perSec := func(n int) float64 { return float64(n) * float64(sweeps) / secs }
	return SweepBench{
		Workers:        cfg.Workers,
		Sweeps:         sweeps,
		Seconds:        secs,
		SweepsPerSec:   float64(sweeps) / secs,
		PostsPerSec:    perSec(len(data.Posts)),
		TokensPerSec:   perSec(tokens),
		LinksPerSec:    perSec(links),
		AllocsPerSweep: float64(after.Mallocs-before.Mallocs) / float64(sweeps),
		BytesPerSweep:  float64(after.TotalAlloc-before.TotalAlloc) / float64(sweeps),
	}, nil
}
