package main

import (
	"runtime"

	"github.com/cold-diffusion/cold/internal/synth"
)

// metricSpec names one metric of BENCHMARK.json. The tables below are the
// program's own copy of the names it emits; spec_test.go fails when they
// and BENCHMARK.json disagree.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd is the vector every workload prints with -trace 0. The driver's
// schema has one metric list for all workloads, so the names are roles and
// each workload states (opNames) which operation fills each role.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"primary_p50_ms", "ms", "lower"},
	{"primary_per_s", "1/s", "higher"},
	{"secondary_p50_ms", "ms", "lower"},
	{"tertiary_p50_ms", "ms", "lower"},
}

// perLayer is the vector every workload prints with -trace 1: the layer
// battery run over that workload's own corpus, model and request pool.
var perLayer = []metricSpec{
	{"core.sweep_serial_tokens_per_s", "1/s", "higher"},
	{"core.allocs_per_sweep", "count", "lower"},
	{"core.sweep_parallel_tokens_per_s", "1/s", "higher"},
	{"core.sweep_parallel_w1_ratio", "ratio", "higher"},
	{"core.train_nonsweep_share_serial", "ratio", "lower"},
	{"core.train_nonsweep_share_parallel", "ratio", "lower"},
	{"gas.engine_build_s", "s", "lower"},
	{"gas.busy_s_per_sweep", "s", "lower"},
	{"gas.barrier_s_per_sweep", "s", "lower"},
	{"gas.merge_s_per_sweep", "s", "lower"},
	{"gas.barrier_busy_ratio", "ratio", "lower"},
	{"gas.wall_speedup", "ratio", "higher"},
	{"gas.projected_speedup", "ratio", "higher"},
	{"core.heldout_perplexity", "ppl", "lower"},
	{"core.community_nmi", "ratio", "higher"},
	{"core.predict_score_ns", "ns", "lower"},
	{"core.predict_link_ns", "ns", "lower"},
	{"core.predict_time_ns", "ns", "lower"},
	{"core.predict_topics_ns", "ns", "lower"},
	{"serve.engine_batch32_us", "us", "lower"},
	{"serve.handler_single_us", "us", "lower"},
	{"serve.handler_batch32_us", "us", "lower"},
	{"serve.handler_rank_us", "us", "lower"},
	{"serve.handler_allocs_single", "count", "lower"},
	{"serve.handler_allocs_batch32", "count", "lower"},
	{"serve.batch_window_wait_us", "us", "lower"},
	{"serve.http_overhead_us", "us", "lower"},
	{"overload.admit_release_ns", "ns", "lower"},
	{"serve.cache_hit_ratio", "ratio", "higher"},
	{"serve.cache_evictions_per_s", "1/s", "lower"},
	{"serve.shed_total", "count", "lower"},
	{"serve.brownout_peak_level", "count", "lower"},
	{"cluster.hop_single_us", "us", "lower"},
	{"cluster.hop_batch32_us", "us", "lower"},
	{"cluster.hop_rank_us", "us", "lower"},
	{"cluster.handler_batch32_us", "us", "lower"},
	{"cluster.fanout_per_batch", "count", "lower"},
	{"cluster.retries_total", "count", "lower"},
	{"cluster.hedges_total", "count", "lower"},
	{"cluster.skew_discards_total", "count", "lower"},
	{"ingest.wal_append_us", "us", "lower"},
	{"ingest.wal_append_nosync_us", "us", "lower"},
	{"ingest.wal_bytes_per_record", "B", "lower"},
	{"ingest.submit_us", "us", "lower"},
	{"ingest.ack_capacity_per_s", "1/s", "higher"},
	{"ingest.queue_depth_max", "count", "lower"},
	{"ingest.shed_total", "count", "lower"},
	{"core.foldin_us_per_post", "us", "lower"},
	{"core.model_write_ms", "ms", "lower"},
	{"ingest.fold_publish_ms", "ms", "lower"},
	{"core.model_load_ms", "ms", "lower"},
	{"core.rank_build_ms", "ms", "lower"},
	{"serve.reload_ms", "ms", "lower"},
	{"ingest.reload_visible_ms", "ms", "lower"},
	{"span.gen_request_self_us", "us", "lower"},
	{"span.cluster_handle_self_us", "us", "lower"},
	{"span.cluster_forward_self_us", "us", "lower"},
	{"span.serve_handle_self_us", "us", "lower"},
	{"span.ingest_handle_self_us", "us", "lower"},
	{"gen.late_p99_ms", "ms", "lower"},
	{"gen.conn_busy_share", "ratio", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
}

// Workload names, in the order BENCHMARK.json lists them.
const (
	wTrainXL    = "train_xl"
	wScoreHot   = "score_hot"
	wScoreCold  = "score_cold_routed"
	wIngestFrsh = "ingest_fresh"
)

var workloadNames = []string{wTrainXL, wScoreHot, wScoreCold, wIngestFrsh}

// opNames says which operation fills the primary, secondary and tertiary
// role on each workload; it is printed with every result so a number is
// never read without its operation.
var opNames = map[string][3]string{
	wTrainXL:    {"sweep of TrainRun at Workers=nproc", "sweep of TrainRun at Workers=1", "publish: Model.SaveFile + serve.Manager.Reload"},
	wScoreHot:   {"POST /v1/score/batch, 32 items", "POST /v1/predict/retweet", "GET /v1/rank/{user}?k=20"},
	wScoreCold:  {"routed POST /v1/score/batch, 32 items", "routed single-score routes", "routed GET /v1/rank/{user}?k=20"},
	wIngestFrsh: {"POST /v1/ingest to durable ack", "freshness: new user due to first served", "POST /v1/score/batch beside the writes"},
}

// hostShare is, for each of a workload's numbers — primary, secondary and
// tertiary time, and the primary rate — the share of it that stretches
// with the host, as an exponent: the number is divided by the slowdown of
// its reference (hostref.go) raised to it. 1: compute on the host's CPUs
// and caches, of the same kind as its reference. 0: reported as measured,
// because the program's own timers set it — a single score waits out the
// 1 ms batch window, freshness waits for the fold tick and the poll — and
// scaling a time that is mostly timer moves it by more than the host did.
// ½: publishing a model and setting a workload up are part memory walk and
// part allocation, encoding, file I/O and process start, which the cache
// walk overstates; over 100 runs their times went with the walk's slowdown
// to the power 0.3 to 0.7. On ingest_fresh an ack is part round trip and
// part fsync, and the reads and the sustained write rate ride on a fold and
// a reload four times a second; over 40 runs ½ gave each the narrowest
// worst spread (9 % to 13 %, against 19 % at 1 and 34 % as measured).
var hostShare = map[string][4]float64{
	wTrainXL:    {1, 1, 0.5, 1},
	wScoreHot:   {1, 0, 1, 1},
	wScoreCold:  {1, 0, 1, 1},
	wIngestFrsh: {0.5, 0, 0.5, 0.5},
}

// setupShare is hostShare for set-up time, on every workload.
const setupShare = 0.5

// sizes fixes every size and rate of the suite. The full values are what
// BENCHMARK.json's numbers are measured at; the miniature keeps the smoke
// test inside `go test ./...` to a few seconds.
type sizes struct {
	TrainCorpus synth.Config // train_xl
	ServeCorpus synth.Config // the three serving workloads
	ServeC      int
	ServeK      int
	ServeSweeps int

	// TrainSweepsPerSecond × -seconds is the fixed sweep count of each
	// train_xl TrainRun (a batch job is measured at a stated size, so
	// the budget picks the size once instead of cutting a run short).
	TrainSweepsPerSecond float64
	PublishReps          int
	IdentityPosts        int // subset size for the worker-count bit-identity check

	Warmup      float64 // seconds of discarded open loop before each measured one
	OpenShare   float64 // share of -seconds spent in the open loop; the rest is closed loop
	Windows     int     // tail estimator windows of the open loop
	BatchItems  int
	HotPool     int
	HotZipfS    float64
	ColdPool    int
	ColdWords   int
	RankK       int
	CheckShare  float64 // share of responses verified against core.Predictor
	FoldEvery   string
	ServePoll   string
	NewUserRate float64 // share of ingest records that introduce a user

	// Open-loop rates, operations per second.
	HotSingle, HotBatch, HotRank    float64
	ColdSingle, ColdBatch, ColdRank float64
	IngestWrite, IngestRead         float64
	// The reference round trip: its open-loop rate, and how often the
	// closed loop sends it (every RefEvery-th send of a connection).
	RefRate  float64
	RefEvery int

	// Traced run: seconds of one-at-a-time replay, and the repetition
	// count of each direct-call probe of the layer battery.
	ReplaySeconds float64
	ProbeReps     int
	ProbeSweeps   int
}

func fullSizes(seed uint64) sizes {
	return sizes{
		TrainCorpus: synth.Config{U: 6000, C: 16, K: 24, T: 48, V: 12000,
			PostsPerUser: 20, WordsPerPost: 9, LinksPerUser: 10, Seed: seed},
		ServeCorpus: synth.Medium(seed),
		ServeC:      10, ServeK: 14, ServeSweeps: 40,

		TrainSweepsPerSecond: 4.0 / 3.0,
		PublishReps:          15,
		IdentityPosts:        8000,

		Warmup: 2, OpenShare: 0.8, Windows: 3,
		BatchItems: 32,
		HotPool:    2000, HotZipfS: 1.4,
		ColdPool: 200000, ColdWords: 9,
		RankK:      20,
		CheckShare: 0.01,
		FoldEvery:  "250ms", ServePoll: "50ms",
		NewUserRate: 0.25,

		HotSingle: 200, HotBatch: 800, HotRank: 400,
		ColdSingle: 100, ColdBatch: 250, ColdRank: 200,
		IngestWrite: 200, IngestRead: 400,
		RefRate: 200, RefEvery: 8,

		ReplaySeconds: 3, ProbeReps: 400, ProbeSweeps: 3,
	}
}

func miniSizes(seed uint64) sizes {
	s := fullSizes(seed)
	s.TrainCorpus = synth.Config{U: 300, C: 6, K: 8, T: 24, V: 900,
		PostsPerUser: 12, WordsPerPost: 9, LinksPerUser: 8, Seed: seed}
	s.ServeCorpus = synth.Small(seed)
	s.ServeC, s.ServeK, s.ServeSweeps = 6, 8, 12
	s.TrainSweepsPerSecond = 12
	s.PublishReps = 2
	s.IdentityPosts = 1500
	s.Warmup = 0.1
	s.HotPool, s.ColdPool = 200, 4000
	s.CheckShare = 0.2
	s.FoldEvery, s.ServePoll = "40ms", "10ms"
	s.HotSingle, s.HotBatch, s.HotRank = 100, 200, 100
	s.ColdSingle, s.ColdBatch, s.ColdRank = 60, 100, 60
	s.IngestWrite, s.IngestRead = 150, 150
	s.RefRate = 100
	s.ReplaySeconds, s.ProbeReps, s.ProbeSweeps = 0.2, 12, 1
	return s
}

// genConns is the number of sender goroutines and connections of the one
// generator process: min(nproc, 4), and at least 2 so that ingest_fresh
// has a writer and a reader.
func genConns() int {
	return max(2, min(runtime.NumCPU(), 4))
}
