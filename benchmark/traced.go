package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"github.com/cold-diffusion/cold/internal/core"
	"github.com/cold-diffusion/cold/internal/ingest"
	"github.com/cold-diffusion/cold/internal/rng"
	"github.com/cold-diffusion/cold/internal/serve"
	"github.com/cold-diffusion/cold/internal/stats"
)

// traced is the state of one traced run: the workload's inputs, the three
// topologies hosted in this process behind span-recording wrappers, and
// the tracer they report to.
type traced struct {
	e    *env
	r    *runResult
	name string
	tr   *tracer
	rng  *rng.RNG

	tc   *trainCorpus // the corpus the training probes run on
	c, k int
	s    *scoring
	hot  bool // the workload's requests come from the hot pool

	direct *hosted // one unsharded replica
	routed *hosted // router over two shard replicas
	live   *hosted // ingester publishing to a replica that follows it
	model  string  // path of the model file the hosted replicas load

	brownout int // deepest brownout level seen on any replica, sampled after each step

	conn   *conn   // the one traced connection
	lanes  [3][]op // generated scoring requests, by lane
	taken  [3]int  // how many of each lane take has handed out
	writes *writes
}

// runTraced is the -trace 1 run of a workload: the workload replayed one
// request at a time through in-process layers that record spans, then the
// layer battery — direct calls into every layer's public functions — over
// the same corpus, model and request pool. It prints every per-layer
// metric; the untraced run is where the end-to-end numbers come from.
func runTraced(e *env, name string) (*runResult, error) {
	t := &traced{e: e, r: newResult(e, name, true), name: name, tr: newTracer(),
		rng: rng.New(e.seed + 2), hot: name != wScoreCold}
	t.conn = newConn()
	t.conn.tracer = t.tr
	defer closeConns([]*conn{t.conn})

	// Inputs. train_xl's battery serves the model its own traced training
	// produced; the serving workloads train theirs as the untraced run does.
	var err error
	if name == wTrainXL {
		if t.tc, err = fastCorpus(e.sz.TrainCorpus); err != nil {
			return nil, err
		}
		t.c, t.k = e.sz.TrainCorpus.C, e.sz.TrainCorpus.K
	} else {
		if t.s, err = newScoring(e.sz, e.seed); err != nil {
			return nil, err
		}
		t.tc, t.c, t.k = t.s.tc, e.sz.ServeC, e.sz.ServeK
	}
	model, err := t.trainProbes()
	if err != nil {
		return nil, err
	}
	if t.s == nil {
		t.s = scoringOver(e.sz, t.tc, model)
	}
	t.r.ScheduleHash = t.requests()

	for i, topo := range []topology{topoServe, topoRouted, topoIngest} {
		f, err := writeFiles(filepath.Join(e.work, fmt.Sprintf("traced%d", i)), t.s.model, nil, topo)
		if err != nil {
			return nil, err
		}
		h, err := startHosted(topo, f, t.s.data, e.sz, t.tr.hooks())
		if err != nil {
			return nil, err
		}
		defer h.stop()
		t.model = f.model
		switch topo {
		case topoServe:
			t.direct = h
		case topoRouted:
			t.routed = h
		default:
			t.live = h
		}
	}

	for _, step := range []func() error{t.replay, t.predictProbes, t.serveProbes,
		t.clusterProbes, t.ingestProbes, t.reloadProbes, t.generatorProbes} {
		if err := step(); err != nil {
			return nil, err
		}
		for _, h := range []*hosted{t.direct, t.routed, t.live} {
			for _, srv := range h.replicas {
				if l := srv.Brownout(); l != nil {
					t.brownout = max(t.brownout, l.Level())
				}
			}
		}
	}
	t.counters()
	t.spanMetrics()
	if err := t.tr.write(filepath.Join(e.traceDir, "trace-"+name+".json")); err != nil {
		return nil, err
	}

	missing := 0
	for _, m := range perLayer {
		if _, ok := t.r.Metrics[m.Name]; !ok {
			missing++
			t.r.check("per-layer metric produced", false, "%s", m.Name)
		}
	}
	t.r.check("every per-layer metric produced", missing == 0, "%d of %d", len(perLayer)-missing, len(perLayer))
	for _, h := range []*hosted{t.direct, t.routed, t.live} {
		if err := h.stop(); err != nil {
			t.r.check("layers shut down cleanly", false, "%v", err)
		}
	}
	return t.r, nil
}

// requests generates the requests of the traced run from the workload's
// pool: per lane, enough for the replay and for each probe of the battery
// to have requests no earlier step has sent (take), so that a probe over
// the cold pool meets a cold cache; and an ingest write stream.
func (t *traced) requests() string {
	reps := float64(t.e.sz.ProbeReps)
	n := 5*reps + 500*t.e.sz.ReplaySeconds
	tr := t.s.scoreTraffic(t.rng, t.hot, []laneSpec{{laneBatch, n}, {laneSingle, n}, {laneRank, n}}, time.Second, 0)
	for _, o := range tr.open {
		t.lanes[o.lane] = append(t.lanes[o.lane], o)
	}
	t.writes = t.s.ingestWrites(t.rng, reps, 0, time.Second, 4*t.e.sz.ProbeReps)
	return scheduleHash(tr.open, t.writes.open, t.writes.closed)
}

// take hands out the next n unsent requests of a lane, wrapping around
// when the lane runs out.
func (t *traced) take(lane, n int) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = t.lanes[lane][(t.taken[lane]+i)%len(t.lanes[lane])]
	}
	t.taken[lane] += n
	return out
}

// scoreRequests turns the queries of a scoring op into engine requests.
func (t *traced) scoreRequests(o *op) []serve.ScoreRequest {
	n := max(1, o.items)
	reqs := make([]serve.ScoreRequest, 0, n)
	for i := range t.s.queries[o.ref : o.ref+n] {
		it := &t.s.queries[o.ref+i]
		rq := serve.ScoreRequest{Kind: serve.Kind(it.kind)}
		switch it.kind {
		case "retweet":
			rq.Publisher, rq.Candidate, rq.Words = it.a, it.b, t.s.bag(it)
		case "link":
			rq.From, rq.To = it.a, it.b
		default:
			rq.User, rq.Words = it.a, t.s.bag(it)
		}
		reqs = append(reqs, rq)
	}
	return reqs
}

// replayScore replays a traced scoring request's input as direct calls
// under the same trace id: the engine behind the handler, and the
// predictor behind the engine.
func (t *traced) replayScore(o *op) {
	if o.lane == laneRank {
		return
	}
	root := t.conn.last
	reqs := t.scoreRequests(o)
	sp := t.tr.begin(root.Trace, root.ID, "serve.engine")
	t.direct.mgr.Current().Engine.ScoreBatch(context.Background(), reqs)
	sp.end()
	sp = t.tr.begin(root.Trace, root.ID, "core.predict")
	for i := range reqs {
		t.s.expect(&t.s.queries[o.ref+i])
	}
	sp.end()
}

// replay sends the workload's own traffic one request at a time, first
// with tracing off and then with it on; the difference of the medians is
// the tracing overhead. train_xl's traffic is its training run, which
// trainProbes has traced already.
func (t *traced) replay() error {
	d := time.Duration(t.e.sz.ReplaySeconds * float64(time.Second))
	var base string
	var ops []op
	var after func(o *op)
	switch t.name {
	case wTrainXL:
		return nil
	case wScoreHot:
		base, after = t.direct.serve, t.replayScore
	case wScoreCold:
		base, after = t.routed.router, t.replayScore
	case wIngestFrsh:
		base, after = t.live.ingest, t.replayWrite()
	}
	// Scoring requests go back to back and none is sent twice; writes are
	// paced at the workload's rate, which the fold loop is sized for.
	judge, pace := replyOK, time.Duration(0)
	if t.name == wIngestFrsh {
		ops, judge = t.writes.closed, ackJudge
		pace = time.Duration(float64(time.Second) / t.e.sz.IngestWrite)
	} else {
		per := int(500 * t.e.sz.ReplaySeconds)
		b, s, r := t.take(laneBatch, per), t.take(laneSingle, per), t.take(laneRank, per)
		for i := range b {
			ops = append(ops, b[i], s[i], r[i])
		}
	}
	// Four legs, off on on off, so that a warm-up trend favours neither.
	var lat [2][]float64
	sent := 0
	for leg := 0; leg < 4; leg++ {
		on := leg == 1 || leg == 2
		t.tr.on.Store(on)
		start := time.Now()
		ph := runClosed([]*conn{t.conn}, base, d/4, func(_, n int) *op {
			sleepUntil(start.Add(time.Duration(n) * pace))
			return &ops[(sent+n)%len(ops)]
		},
			func(c *conn, o *op, r *result, body []byte) bool {
				// The direct-call replay runs on both sides, so that the
				// traced legs do not alone keep the core warm between
				// requests; with tracing off it records nothing.
				ok := judge(c, o, r, body)
				after(o)
				return ok
			})
		t.tr.on.Store(false)
		side := 0
		if on {
			side = 1
		}
		for i := range ph.res {
			lat[side] = append(lat[side], ph.res[i].latMS)
		}
		n, ok := ph.counts()
		sent += n
		t.r.tally(fmt.Sprintf("replay, tracing %v", on), n, ok)
	}
	plain, withSpans := stats.Median(lat[0]), stats.Median(lat[1])
	t.r.set("trace.overhead_share", withSpans/plain-1, len(lat[1]),
		fmt.Sprintf("median %.4f ms traced over %.4f ms untraced", withSpans, plain))
	return nil
}

// replayWrite returns the direct-call replay of a traced ingest request:
// the WAL append behind the ack and the fold-in behind the publish, and
// every hundredth time the serving reload behind the freshness.
func (t *traced) replayWrite() func(o *op) {
	wal, _, err := ingest.OpenWAL(ingest.WALConfig{Dir: filepath.Join(t.e.work, "replay-wal"), SyncEvery: 1})
	if err != nil {
		return func(*op) {}
	}
	n := 0
	return func(o *op) {
		root := t.conn.last
		sp := t.tr.begin(root.Trace, root.ID, "ingest.wal_append")
		wal.Append(o.body)
		sp.end()
		post := &t.s.data.Posts[o.ref%len(t.s.data.Posts)]
		sp = t.tr.begin(root.Trace, root.ID, "core.foldin")
		t.s.model.FoldIn([]core.FoldInPost{{Words: post.Words, Time: post.Time}}, 20, uint64(o.ref))
		sp.end()
		if n++; n%100 == 0 {
			sp = t.tr.begin(root.Trace, root.ID, "serve.reload")
			t.direct.mgr.Reload()
			sp.end()
		}
	}
}

// counters reads what the hosted layers counted over the whole traced
// run: every replica's cache and admission counters, the router's retry
// counters, the ingester's shed counter.
func (t *traced) counters() {
	var hits, misses, evictions, shed float64
	urls := append([]string{t.direct.serve, t.live.serve}, t.routed.shards...)
	for _, u := range urls {
		m, err := scrape(u)
		if err != nil {
			t.r.check("replica metrics readable", false, "%v", err)
			continue
		}
		hits += m["cold_serve_cache_hits_total"]
		misses += m["cold_serve_cache_misses_total"]
		evictions += m["cold_serve_cache_evictions_total"]
		shed += m["cold_serve_shed_total"]
	}
	wall := time.Since(t.tr.t0).Seconds()
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	t.r.set("serve.cache_hit_ratio", ratio, int(hits+misses), "all hosted replicas, whole traced run")
	t.r.set("serve.cache_evictions_per_s", evictions/wall, int(evictions), "")
	t.r.set("serve.shed_total", shed, 0, "")
	t.r.set("serve.brownout_peak_level", float64(t.brownout), 0, "deepest level of any replica, sampled after each battery step")
	t.r.set("cluster.retries_total", float64(t.routed.rtM.Retries.Value()), 0, "")
	t.r.set("cluster.hedges_total", float64(t.routed.rtM.Hedges.Value()), 0, "")
	t.r.set("cluster.skew_discards_total", float64(t.routed.rtM.SkewDiscards.Value()), 0, "")
	t.r.set("ingest.shed_total", float64(t.live.ingM.Shed.Value()), 0, "")
}

// spanMetrics reports each layer's median self time from the spans.
func (t *traced) spanMetrics() {
	self := selfTimes(t.tr.spans)
	for metric, name := range map[string]string{
		"span.gen_request_self_us":     "gen.request",
		"span.cluster_handle_self_us":  "cluster.handle",
		"span.cluster_forward_self_us": "cluster.forward",
		"span.serve_handle_self_us":    "serve.handle",
		"span.ingest_handle_self_us":   "ingest.handle",
	} {
		t.r.set(metric, stats.Median(self[name]), len(self[name]), "median self time")
	}
}

// tracedDo sends one request with tracing on, so the battery's HTTP probes
// leave spans of every layer on every workload.
func (t *traced) tracedDo(base string, o *op) (float64, bool) {
	t.tr.on.Store(true)
	t0 := time.Now()
	status, _ := t.conn.do(o.method, base+o.path, o.body)
	us := float64(time.Since(t0)) / 1e3
	t.tr.on.Store(false)
	return us, status == http.StatusOK
}
