package core

import (
	"github.com/cold-diffusion/cold/internal/gas"
	"github.com/cold-diffusion/cold/internal/obs"
)

// TrainObserver bundles the training runtime's instruments. All fields
// are optional: a nil *TrainObserver (or any nil field) disables that
// instrumentation with no branches in calling code, since obs
// instruments are nil-safe. Build one with NewTrainObserver to register
// the full cold_train_* / cold_gas_* metric set on a Registry.
type TrainObserver struct {
	// SweepSeconds observes the wall-clock duration of each Gibbs sweep
	// (sampling plus likelihood evaluation).
	SweepSeconds *obs.Histogram
	// SamplerBuild tracks how long the latest sampler construction took
	// (initial build or stall rebuild; for the parallel sampler: graph
	// layout, edge colouring and shard plan).
	SamplerBuild *obs.Gauge
	// Likelihood tracks the latest per-sweep log-likelihood.
	Likelihood *obs.Gauge
	// Sweep tracks the latest completed sweep index.
	Sweep *obs.Gauge
	// Samples counts thinned samples folded into the posterior mean.
	Samples *obs.Counter
	// Rollbacks counts divergence recoveries.
	Rollbacks *obs.Counter
	// Stalls counts sweeps aborted by the stall supervisor and recovered
	// by rebuilding the sampler from the last in-memory snapshot.
	Stalls *obs.Counter
	// Resumes counts runs that started from an on-disk checkpoint.
	Resumes *obs.Counter
	// CheckpointFailures counts checkpoint writes that failed and were
	// tolerated (training continued on the in-memory state).
	CheckpointFailures *obs.Counter
	// CheckpointsQuarantined counts corrupt checkpoint generations moved
	// aside (.bad) during a latest-valid resume walk-back.
	CheckpointsQuarantined *obs.Counter
	// CheckpointSave/CheckpointLoad observe checkpoint (de)serialisation
	// durations, including fsync and validation.
	CheckpointSave *obs.Histogram
	CheckpointLoad *obs.Histogram
	// Gas carries the parallel engine's worker instruments; threaded
	// into the GAS engine when cfg.Workers > 1.
	Gas *gas.Metrics
}

// NewTrainObserver registers the training metric set on reg. Buckets
// for sweep durations stretch further than the default layout because
// sweeps on real datasets take seconds, not microseconds.
func NewTrainObserver(reg *obs.Registry) *TrainObserver {
	sweepBuckets := []float64{
		0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
		0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
	}
	return &TrainObserver{
		SweepSeconds: reg.Histogram("cold_train_sweep_seconds",
			"Wall-clock duration of one Gibbs sweep including likelihood evaluation.", sweepBuckets),
		SamplerBuild: reg.Gauge("cold_train_sampler_build_seconds",
			"Duration of the latest sampler construction (graph layout, colouring and shard plan when parallel)."),
		Likelihood: reg.Gauge("cold_train_log_likelihood",
			"Log-likelihood after the latest healthy sweep."),
		Sweep: reg.Gauge("cold_train_sweep",
			"Latest completed sweep index."),
		Samples: reg.Counter("cold_train_samples_total",
			"Thinned samples folded into the posterior mean."),
		Rollbacks: reg.Counter("cold_train_rollbacks_total",
			"Divergence recoveries (rollbacks to the last healthy snapshot)."),
		Stalls: reg.Counter("cold_train_stalls_total",
			"Sweeps aborted by the stall supervisor and retried from the last snapshot."),
		Resumes: reg.Counter("cold_train_resumes_total",
			"Training runs started from an on-disk checkpoint."),
		CheckpointFailures: reg.Counter("cold_train_checkpoint_failures_total",
			"Tolerated checkpoint write failures (training continued in memory)."),
		CheckpointsQuarantined: reg.Counter("cold_train_checkpoints_quarantined_total",
			"Corrupt checkpoint generations quarantined (.bad) during resume."),
		CheckpointSave: reg.Histogram("cold_train_checkpoint_save_seconds",
			"Duration of one checkpoint write, including fsync and pruning.", nil),
		CheckpointLoad: reg.Histogram("cold_train_checkpoint_load_seconds",
			"Duration of one checkpoint read, including frame validation.", nil),
		Gas: gas.NewMetrics(reg),
	}
}

// samplerBuilt records one sampler construction.
func (o *TrainObserver) samplerBuilt(seconds float64) {
	if o == nil {
		return
	}
	o.SamplerBuild.Set(seconds)
}

// sweepDone records one healthy sweep.
func (o *TrainObserver) sweepDone(sweep int, seconds, ll float64) {
	if o == nil {
		return
	}
	o.SweepSeconds.Observe(seconds)
	o.Sweep.Set(float64(sweep))
	o.Likelihood.Set(ll)
}

func (o *TrainObserver) sampleTaken() {
	if o == nil {
		return
	}
	o.Samples.Inc()
}

func (o *TrainObserver) rolledBack() {
	if o == nil {
		return
	}
	o.Rollbacks.Inc()
}

func (o *TrainObserver) resumed() {
	if o == nil {
		return
	}
	o.Resumes.Inc()
}

// stallRecovered records one supervisor-detected stall recovered by
// rebuilding the sampler: the stall itself, plus one worker-restart per
// slot in the rebuilt pool.
func (o *TrainObserver) stallRecovered(workers int) {
	if o == nil {
		return
	}
	o.Stalls.Inc()
	if o.Gas != nil && workers > 0 {
		o.Gas.WorkerRestarts.Add(uint64(workers))
	}
}

func (o *TrainObserver) checkpointFailed() {
	if o == nil {
		return
	}
	o.CheckpointFailures.Inc()
}

func (o *TrainObserver) checkpointQuarantined(n int) {
	if o == nil || n <= 0 {
		return
	}
	o.CheckpointsQuarantined.Add(uint64(n))
}

func (o *TrainObserver) checkpointSaved(seconds float64) {
	if o == nil {
		return
	}
	o.CheckpointSave.Observe(seconds)
}

func (o *TrainObserver) checkpointLoaded(seconds float64) {
	if o == nil {
		return
	}
	o.CheckpointLoad.Observe(seconds)
}

// gasMetrics returns the GAS instruments to thread into the parallel
// engine, or nil when unobserved.
func (o *TrainObserver) gasMetrics() *gas.Metrics {
	if o == nil {
		return nil
	}
	return o.Gas
}
