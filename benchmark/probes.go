package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/cold-diffusion/cold/internal/cluster"
	"github.com/cold-diffusion/cold/internal/core"
	"github.com/cold-diffusion/cold/internal/ingest"
	"github.com/cold-diffusion/cold/internal/obs"
	"github.com/cold-diffusion/cold/internal/overload"
	"github.com/cold-diffusion/cold/internal/serve"
	"github.com/cold-diffusion/cold/internal/stats"
)

// The layer battery: every per-layer metric that is a timing is taken from
// outside the layer, around a call into one of its public functions.

// eachUS times n calls one by one and returns the microseconds of each.
func eachUS(n int, f func(i int)) []float64 {
	us := make([]float64, n)
	for i := range us {
		t0 := time.Now()
		f(i)
		us[i] = float64(time.Since(t0)) / 1e3
	}
	return us
}

// meanNS times n back-to-back calls of a function too short to time alone
// and returns the mean nanoseconds of one; it reports the median of five
// such means.
func meanNS(n int, f func(i int)) float64 {
	var means []float64
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		means = append(means, float64(time.Since(t0))/float64(n))
	}
	return stats.Median(means)
}

// allocsPer is the mean heap allocations of one call over n calls.
func allocsPer(n int, f func(i int)) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// call serves one request on a handler directly, with a recorder.
func call(h http.Handler, o *op) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(o.method, o.path, bytes.NewReader(o.body)))
	return rec.Code
}

// trainProbes times the sampler on the workload's corpus: the bare serial
// and parallel sweeps, the parallel program at one worker, engine
// construction, and two short TrainRuns whose sweep time the observer
// separates from the rest. It returns the parallel run's model.
func (t *traced) trainProbes() (*core.Model, error) {
	r, data := t.r, t.tc.data
	p := t.e.sz.ProbeSweeps
	w := trainWorkers()
	cfg := func(workers int) core.Config { return trainConfig(t.c, t.k, p+2, workers, t.e.seed) }

	ser, err := core.BenchSweeps(data, cfg(1), 1, p)
	if err != nil {
		return nil, err
	}
	r.set("core.sweep_serial_tokens_per_s", ser.TokensPerSec, p, "")
	r.set("core.allocs_per_sweep", ser.AllocsPerSweep, p, "")

	t0 := time.Now()
	par, _, err := core.BenchParallelSweeps(data, cfg(w), 0, p+1)
	if err != nil {
		return nil, err
	}
	build := time.Since(t0).Seconds() - par.Seconds
	r.set("gas.engine_build_s", build, 1, "BenchParallelSweeps wall minus its sweep seconds")
	r.set("core.sweep_parallel_tokens_per_s", par.TokensPerSec, p+1, fmt.Sprintf("%d workers", w))
	n := float64(par.Sweeps)
	r.set("gas.busy_s_per_sweep", par.BusySeconds/n, par.Sweeps, "")
	r.set("gas.barrier_s_per_sweep", par.BarrierSeconds/n, par.Sweeps, "")
	r.set("gas.merge_s_per_sweep", par.SerialMergeSeconds/n, par.Sweeps, "")
	r.set("gas.barrier_busy_ratio", par.BarrierBusyRatio, par.Sweeps, "")

	one, st1, err := core.BenchParallelSweeps(data, cfg(1), 0, p+1)
	if err != nil {
		return nil, err
	}
	r.set("core.sweep_parallel_w1_ratio", one.TokensPerSec/ser.TokensPerSec, p+1, "parallel program at 1 worker over the serial sampler")
	r.set("gas.wall_speedup", one.Seconds/par.Seconds, p+1, fmt.Sprintf("1 worker over %d workers, measured", w))
	r.set("gas.projected_speedup", st1.ProjectedSeconds(1)/st1.ProjectedSeconds(w), p+1,
		fmt.Sprintf("a projection of the 1-worker schedule onto %d ideal workers", w))

	// The traced training runs: a train.run span with one train.sweep
	// child per sweep, laid end to end from the sweep log.
	var model *core.Model
	var plainWall float64
	t.tr.on.Store(true)
	defer t.tr.on.Store(false)
	for _, workers := range []int{1, w} {
		observer := core.NewTrainObserver(obs.NewRegistry())
		run := t.tr.begin(t.tr.ids.Add(1), 0, "train.run")
		tt, err := timedTrain(t.tc, cfg(workers), observer)
		run.end()
		if err != nil {
			return nil, err
		}
		at := run.span.End
		for i := len(tt.sweep) - 1; i >= 0; i-- {
			sw := span{Trace: run.span.Trace, ID: t.tr.ids.Add(1), Parent: run.span.ID, Name: "train.sweep",
				Start: at - int64(tt.sweep[i]*1e6), End: at}
			at = sw.Start
			t.tr.spans = append(t.tr.spans, sw)
		}
		share := 1 - observer.SweepSeconds.Sum()/tt.wall
		name := "core.train_nonsweep_share_parallel"
		if workers == 1 {
			name, plainWall = "core.train_nonsweep_share_serial", tt.wall
		}
		r.set(name, share, tt.stats.Sweeps, fmt.Sprintf("TrainRun wall %.3f s", tt.wall))
		r.tally(fmt.Sprintf("traced TrainRun workers=%d", workers), tt.stats.Sweeps, tt.stats.Sweeps)
		model = tt.model
	}
	r.set("core.heldout_perplexity", model.Perplexity(t.tc.heldUsers, t.tc.heldPosts), len(t.tc.heldPosts), "")
	r.set("core.community_nmi", nmi(model, t.tc.gt), len(t.tc.gt.Primary), "")

	if t.name == wTrainXL {
		// train_xl's replay is the training run itself: the same serial
		// run without logger and observer is the untraced leg.
		t0 := time.Now()
		if _, _, err := core.TrainRun(context.Background(), data, cfg(1), core.RunOptions{}); err != nil {
			return nil, err
		}
		bare := time.Since(t0).Seconds()
		r.set("trace.overhead_share", plainWall/bare-1, p+2,
			fmt.Sprintf("serial TrainRun %.3f s observed over %.3f s bare", plainWall, bare))
	}
	return model, nil
}

// predictProbes times the predictor's four entry points over the pool.
func (t *traced) predictProbes() error {
	byKind := map[string][]item{}
	for _, it := range t.s.queries {
		byKind[it.kind] = append(byKind[it.kind], it)
	}
	n := 10 * t.e.sz.ProbeReps
	for metric, kind := range map[string]string{"core.predict_score_ns": "retweet", "core.predict_link_ns": "link",
		"core.predict_time_ns": "time", "core.predict_topics_ns": "topics"} {
		its := byKind[kind]
		if len(its) == 0 {
			// A hot pool holds retweets only; the other kinds run over
			// its users and words.
			for _, it := range byKind["retweet"] {
				it.kind = kind
				its = append(its, it)
			}
		}
		t.r.set(metric, meanNS(n, func(i int) { t.s.expect(&its[i%len(its)]) }), n, "")
	}
	return nil
}

// serveProbes times the serving layer from outside: the engine behind the
// batch handler, the handlers themselves with a recorder, the lone
// caller's batch window, a loopback round trip, and admission.
func (t *traced) serveProbes() error {
	r, reps := t.r, t.e.sz.ProbeReps
	engine := t.direct.mgr.Current().Engine
	ops := t.take(laneBatch, reps)
	us := eachUS(reps, func(i int) {
		engine.ScoreBatch(context.Background(), t.scoreRequests(&ops[i]))
	})
	r.set("serve.engine_batch32_us", stats.Median(us), reps, "")

	// Every probe takes requests no earlier one has sent, so the two sides
	// of each difference below meet the same cache.
	h := t.direct.srv.Handler()
	bad := 0
	probe := func(h http.Handler, lane int) func(i int) {
		ops := t.take(lane, reps)
		return func(i int) {
			if call(h, &ops[i]) != http.StatusOK {
				bad++
			}
		}
	}
	single := stats.Median(eachUS(reps, probe(h, laneSingle)))
	batch := stats.Median(eachUS(reps, probe(h, laneBatch)))
	r.set("serve.handler_single_us", single, reps, "shipped defaults, lone caller")
	r.set("serve.handler_batch32_us", batch, reps, "")
	r.set("serve.handler_rank_us", stats.Median(eachUS(reps, probe(h, laneRank))), reps, "")
	r.set("serve.handler_allocs_single", allocsPer(reps, probe(h, laneSingle)), reps, "")
	r.set("serve.handler_allocs_batch32", allocsPer(reps, probe(h, laneBatch)), reps, "")

	// The same replica with the micro-batch window off: what is left of a
	// lone single-score call when it does not wait for peers.
	unbatched := serve.New(serve.Config{BatchWindow: -1, Logf: quiet}, t.direct.mgr, t.s.data).Handler()
	r.set("serve.batch_window_wait_us", single-stats.Median(eachUS(reps, probe(unbatched, laneSingle))), reps,
		"handler_single_us minus the same with BatchWindow -1")

	rtt := make([]float64, reps)
	for i, o := range t.take(laneBatch, reps) {
		us, ok := t.tracedDo(t.direct.serve, &o)
		if !ok {
			bad++
		}
		rtt[i] = us
	}
	r.set("serve.http_overhead_us", stats.Median(rtt)-batch, reps, "loopback round trip minus handler_batch32_us")

	ctrl := overload.NewController(overload.Config{Ceiling: 64})
	r.set("overload.admit_release_ns", meanNS(100*reps, func(int) {
		tk, err := ctrl.Admit(context.Background(), overload.TierBatch, time.Time{})
		if err == nil {
			ctrl.Release(tk, false)
		}
	}), 100*reps, "uncontended")
	r.tally("serve probes", 7*reps, 7*reps-bad)
	return nil
}

// stubReplicas answers the router's forwards with canned bytes and counts
// them: the router's own cost, with no replica behind it.
type stubReplicas struct{ forwards atomic.Int64 }

var okSlot = []byte(`{"status":"ok","score":0.5}`)

func (s *stubReplicas) RoundTrip(req *http.Request) (*http.Response, error) {
	var body []byte
	if req.Body != nil {
		body, _ = io.ReadAll(req.Body)
		req.Body.Close()
	}
	s.forwards.Add(1)
	out := []byte(`{"results":[`)
	for i, n := 0, bytes.Count(body, []byte(`"kind"`)); i < n; i++ {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, okSlot...)
	}
	out = append(out, `],"generation":1,"model_key":"stub","degraded":false}`...)
	return &http.Response{StatusCode: http.StatusOK, Status: "200 OK", Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{"Content-Type": {"application/json"}}, Body: io.NopCloser(bytes.NewReader(out)),
		ContentLength: int64(len(out)), Request: req}, nil
}

// clusterProbes times the routing hop — the same request through the
// router and straight to a replica that can answer it — and the router's
// handler over stub replicas.
func (t *traced) clusterProbes() error {
	r, reps := t.r, t.e.sz.ProbeReps
	bad := 0
	// The shard replicas and the unsharded replica each keep their own
	// cache, so a request neither has seen is equally cold on both paths.
	hop := func(lane int) float64 {
		routed, direct := make([]float64, reps), make([]float64, reps)
		for i, o := range t.take(lane, reps) {
			var ok1, ok2 bool
			routed[i], ok1 = t.tracedDo(t.routed.router, &o)
			direct[i], ok2 = t.tracedDo(t.direct.serve, &o)
			if !ok1 || !ok2 {
				bad++
			}
		}
		return stats.Median(routed) - stats.Median(direct)
	}
	r.set("cluster.hop_single_us", hop(laneSingle), reps, "routed minus direct round trip")
	r.set("cluster.hop_batch32_us", hop(laneBatch), reps, "routed minus direct round trip")
	r.set("cluster.hop_rank_us", hop(laneRank), reps, "routed minus direct round trip")

	stub := &stubReplicas{}
	rt, err := cluster.New(cluster.Config{Shards: [][]string{{"http://stub0"}, {"http://stub1"}},
		Logf: quiet, Client: &http.Client{Transport: stub}})
	if err != nil {
		return err
	}
	h := rt.Handler()
	batches := t.take(laneBatch, reps)
	us := eachUS(reps, func(i int) {
		if call(h, &batches[i]) != http.StatusOK {
			bad++
		}
	})
	r.set("cluster.handler_batch32_us", stats.Median(us), reps, "stub replicas")
	r.set("cluster.fanout_per_batch", float64(stub.forwards.Load())/float64(reps), reps, "forwards per routed batch")
	r.tally("cluster probes", 4*reps, 4*reps-bad)
	return nil
}

// dirBytes sums the sizes of the files in dir.
func dirBytes(dir string) int64 {
	var total int64
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if info, err := e.Info(); err == nil && !info.IsDir() {
			total += info.Size()
		}
	}
	return total
}

// ingestProbes times the write path: the WAL append with and without its
// fsync, Submit on the hosted ingester, the closed-loop ack capacity over
// HTTP, and the steps between an ack and a served model.
func (t *traced) ingestProbes() error {
	r, reps := t.r, t.e.sz.ProbeReps
	payload := func(i int) []byte { return t.writes.open[i%len(t.writes.open)].body }
	for metric, every := range map[string]int{"ingest.wal_append_us": 1, "ingest.wal_append_nosync_us": 1 << 30} {
		dir := filepath.Join(t.e.work, metric)
		wal, _, err := ingest.OpenWAL(ingest.WALConfig{Dir: dir, SyncEvery: every})
		if err != nil {
			return err
		}
		us := eachUS(reps, func(i int) { wal.Append(payload(i)) })
		if err := wal.Close(); err != nil {
			return err
		}
		r.set(metric, stats.Median(us), reps, fmt.Sprintf("SyncEvery %d", every))
		if every == 1 {
			r.set("ingest.wal_bytes_per_record", float64(dirBytes(dir))/float64(reps), reps, "")
		}
	}

	bad := 0
	record := func(i int) ingest.PostRecord {
		var rec ingest.PostRecord
		if json.Unmarshal(payload(i), &rec) != nil {
			bad++
		}
		rec.User = "p" + rec.User
		return rec
	}
	us := eachUS(reps, func(i int) {
		if _, err := t.live.ing.Submit(context.Background(), record(i)); err != nil {
			bad++
		}
	})
	r.set("ingest.submit_us", stats.Median(us), reps, "Ingester.Submit, hosted")

	// Traced writes over HTTP, so that every workload's trace holds the
	// ingest layer's spans.
	for i := 0; i < reps; i++ {
		if _, ok := t.tracedDo(t.live.ingest, &t.writes.open[i%len(t.writes.open)]); !ok {
			bad++
		}
	}

	// Closed-loop writes over HTTP on every generator connection, with the
	// queue depth sampled beside them. The ingester blocks a writer while
	// its queue is full, so this is the rate the fold loop sustains.
	conns := newConns(t.e.conns)
	defer closeConns(conns)
	stop := make(chan struct{})
	depth := make(chan int)
	go func() {
		deepest := 0
		for {
			select {
			case <-stop:
				depth <- deepest
				return
			case <-time.After(2 * time.Millisecond):
				deepest = max(deepest, t.live.ing.Status().QueueDepth)
			}
		}
	}()
	d := time.Duration(t.e.sz.ReplaySeconds * float64(time.Second) / 3)
	ph := runClosed(conns, t.live.ingest, d, func(k, n int) *op {
		return &t.writes.closed[(k*len(t.writes.closed)/len(conns)+n)%len(t.writes.closed)]
	}, ackJudge)
	close(stop)
	sent, ok := ph.counts()
	r.set("ingest.ack_capacity_per_s", float64(ok)/ph.wall.Seconds(), sent,
		fmt.Sprintf("%d connections, closed loop", len(conns)))
	r.set("ingest.queue_depth_max", float64(<-depth), sent, "sampled every 2 ms")
	r.tally("ingest closed loop", sent, ok)

	// Ack to applied and published (the ingester's own status), then
	// published to visible in the follower's /v1/model.
	var publishMS, visibleMS []float64
	watch := &watcher{base: t.live.serve}
	for i := 0; i < 3; i++ {
		rec := record(i)
		rec.User = fmt.Sprintf("fresh-%d", i)
		gen0 := t.live.ing.Generation()
		seq, err := t.live.ing.Submit(context.Background(), rec)
		acked := time.Now()
		if err != nil {
			return fmt.Errorf("submit: %w", err)
		}
		deadline := acked.Add(10 * time.Second)
		for st := t.live.ing.Status(); st.AppliedSeq < seq || t.live.ing.Generation() == gen0; st = t.live.ing.Status() {
			if time.Now().After(deadline) {
				return fmt.Errorf("record %d not published 10 s after its ack", seq)
			}
			time.Sleep(200 * time.Microsecond)
		}
		published := time.Now()
		want := t.s.model.U + t.live.ing.Status().Users
		for watch.look(t.conn) < want {
			if time.Now().After(deadline) {
				return fmt.Errorf("record %d not served 10 s after its ack", seq)
			}
			time.Sleep(200 * time.Microsecond)
		}
		publishMS = append(publishMS, float64(published.Sub(acked))/1e6)
		visibleMS = append(visibleMS, float64(time.Since(published))/1e6)
	}
	r.set("ingest.fold_publish_ms", stats.Median(publishMS), len(publishMS), "ack to applied_seq and generation bump")
	r.set("ingest.reload_visible_ms", stats.Median(visibleMS), len(visibleMS), "generation bump to visible in /v1/model")

	posts := make([]core.FoldInPost, 16)
	for i := range posts {
		posts[i] = core.FoldInPost{Words: t.s.data.Posts[i].Words, Time: t.s.data.Posts[i].Time}
	}
	us = eachUS(max(3, reps/20), func(i int) { t.s.model.FoldIn(posts, 20, uint64(i)) })
	r.set("core.foldin_us_per_post", stats.Median(us)/float64(len(posts)), len(us), "Model.FoldIn, 16 posts, 20 sweeps")
	r.tally("ingest probes", 2*reps+3, 2*reps+3-bad)
	return nil
}

// reloadProbes times what a publish costs the serving side.
func (t *traced) reloadProbes() error {
	r := t.r
	reps := max(3, t.e.sz.ProbeReps/40)
	ms := func(us []float64) float64 { return stats.Median(us) / 1e3 }
	var buf bytes.Buffer
	r.set("core.model_write_ms", ms(eachUS(reps, func(int) {
		buf.Reset()
		t.s.model.WriteJSON(&buf)
	})), reps, fmt.Sprintf("%d bytes of JSON", buf.Len()))
	path := t.model
	var loaded *core.Model
	var err error
	r.set("core.model_load_ms", ms(eachUS(reps, func(int) {
		if m, lerr := core.LoadModelFile(path); lerr != nil {
			err = lerr
		} else {
			loaded = m
		}
	})), reps, "LoadModelFile")
	if err != nil {
		return err
	}
	r.set("core.rank_build_ms", ms(eachUS(reps, func(int) { core.NewCommunityRanker(loaded, 50) })), reps, "NewCommunityRanker(m, 50)")
	r.set("serve.reload_ms", ms(eachUS(reps, func(int) {
		if rerr := t.direct.mgr.Reload(); rerr != nil {
			err = rerr
		}
	})), reps, "Manager.Reload")
	return err
}

// generatorProbes runs one second of the workload's request mix open loop
// against the hosted layers, for the generator's own health numbers.
func (t *traced) generatorProbes() error {
	conns := newConns(t.e.conns)
	defer closeConns(conns)
	base := t.direct.serve
	if t.name == wScoreCold {
		base = t.routed.router
	}
	lanes := t.e.sz.scoreLanes(t.hot)
	if t.name == wIngestFrsh {
		lanes = []laneSpec{{laneBatch, t.e.sz.IngestRead}}
	}
	d := time.Duration(t.e.sz.ReplaySeconds * float64(time.Second) / 3)
	ops := schedule(t.rng, d, lanes, func(lane int, o *op) {
		due := o.due
		*o = t.take(lane, 1)[0]
		o.due = due
	})
	ph := runOpen(conns, base, ops, replyOK)
	all, _ := lateP99(ph)
	t.r.set("gen.late_p99_ms", all, len(ph.res), "send start minus due time, every send")
	t.r.set("gen.conn_busy_share", ph.busyShare(), len(ph.res), fmt.Sprintf("%d connections", len(conns)))
	t.r.tallyPhase("generator probe", ph)
	return nil
}
