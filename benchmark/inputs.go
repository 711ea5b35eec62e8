package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"github.com/cold-diffusion/cold/internal/core"
	"github.com/cold-diffusion/cold/internal/corpus"
	"github.com/cold-diffusion/cold/internal/rng"
	"github.com/cold-diffusion/cold/internal/stats"
	"github.com/cold-diffusion/cold/internal/synth"
	"github.com/cold-diffusion/cold/internal/text"
)

// trainCorpus is a corpus with its planted truth and a held-out set of
// posts drawn from the same truth.
type trainCorpus struct {
	data      *corpus.Dataset
	gt        *synth.GroundTruth
	heldUsers []int
	heldPosts []text.BagOfWords
	tokens    int
}

// heldOutShare of the generated posts are kept out of training for the
// perplexity check.
const heldOutShare = 0.02

// fastCorpus generates a corpus from synth's planted parameters. synth
// draws every token with a linear scan of the V-word topic row, 11 s for
// the train_xl corpus; this keeps synth's parameters and link generator
// (a skeleton Generate with one one-word post per user) and redraws the
// posts by the same process, Alg 1 of the paper, with an O(log V) draw.
func fastCorpus(cfg synth.Config) (*trainCorpus, error) {
	skel := cfg
	skel.PostsPerUser, skel.WordsPerPost = 1e-9, 1e-9
	data, gt, err := synth.Generate(skel)
	if err != nil {
		return nil, err
	}
	cumulative := func(p []float64) []float64 {
		c := make([]float64, len(p))
		sum := 0.0
		for i, x := range p {
			sum += x
			c[i] = sum
		}
		return c
	}
	phi := make([][]float64, len(gt.Phi))
	for k := range phi {
		phi[k] = cumulative(gt.Phi[k])
	}
	r := rng.New(cfg.Seed ^ 0x9e3779b97f4a7c15)
	draw := func(c []float64) int {
		return min(sort.SearchFloat64s(c, r.Float64()*c[len(c)-1]), len(c)-1)
	}

	tc := &trainCorpus{data: data, gt: gt}
	data.Posts, data.Retweets = nil, nil
	gt.PostC, gt.PostZ = nil, nil
	for i := 0; i < cfg.U; i++ {
		n := max(1, r.Poisson(cfg.PostsPerUser))
		for j := 0; j < n; j++ {
			c := r.Categorical(gt.Pi[i])
			z := r.Categorical(gt.Theta[c])
			toks := make([]int, max(1, r.Poisson(cfg.WordsPerPost)))
			for l := range toks {
				toks[l] = draw(phi[z])
			}
			t := r.Categorical(gt.Psi[z][c])
			bag := text.NewBagOfWords(toks)
			if j > 0 && r.Float64() < heldOutShare {
				tc.heldUsers = append(tc.heldUsers, i)
				tc.heldPosts = append(tc.heldPosts, bag)
				continue
			}
			data.Posts = append(data.Posts, corpus.Post{User: i, Time: t, Words: bag})
			gt.PostC = append(gt.PostC, c)
			gt.PostZ = append(gt.PostZ, z)
			tc.tokens += len(toks)
		}
	}
	if err := data.Validate(); err != nil {
		return nil, fmt.Errorf("generated corpus: %w", err)
	}
	return tc, nil
}

// trainConfig is the sampler schedule the suite trains with.
func trainConfig(c, k, sweeps, workers int, seed uint64) core.Config {
	cfg := core.DefaultConfig(c, k)
	cfg.Iterations, cfg.BurnIn, cfg.SampleLag = sweeps, sweeps/2, 2
	cfg.Workers, cfg.Seed = workers, seed
	return cfg
}

// nmi scores the model's hard community assignment against the planted
// primary communities.
func nmi(m *core.Model, gt *synth.GroundTruth) float64 {
	got := make([]int, len(gt.Primary))
	for i := range got {
		got[i] = m.TopCommunities(i, 1)[0]
	}
	return stats.NMI(gt.Primary, got)
}

// item is one scoring query, as a single-route request or a batch slot.
type item struct {
	kind  string // retweet | link | time | topics
	a, b  int    // publisher, candidate | from, to | user, unused
	post  int    // index into the served dataset, or -1 when words are explicit
	words []int
}

// singlePath is the single-score route of each kind.
var singlePath = map[string]string{
	"retweet": "/v1/predict/retweet",
	"link":    "/v1/predict/link",
	"time":    "/v1/predict/time",
	"topics":  "/v1/topics",
}

func appendInts(dst []byte, xs []int) []byte {
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return append(dst, ']')
}

// appendItem writes the item as a JSON object; withKind adds the batch
// slot's discriminator.
func appendItem(dst []byte, it *item, withKind bool) []byte {
	dst = append(dst, '{')
	if withKind {
		dst = append(dst, `"kind":"`...)
		dst = append(dst, it.kind...)
		dst = append(dst, `",`...)
	}
	field := func(name string, v int) {
		dst = append(dst, '"')
		dst = append(dst, name...)
		dst = append(dst, `":`...)
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	switch it.kind {
	case "retweet":
		field("publisher", it.a)
		dst = append(dst, ',')
		field("candidate", it.b)
	case "link":
		field("from", it.a)
		dst = append(dst, ',')
		field("to", it.b)
	default:
		field("user", it.a)
	}
	if it.kind != "link" {
		dst = append(dst, ',')
		if it.post >= 0 {
			field("post", it.post)
		} else {
			dst = append(dst, `"words":`...)
			dst = appendInts(dst, it.words)
		}
	}
	return append(dst, '}')
}

func batchBody(items []item) []byte {
	dst := append(make([]byte, 0, 96*len(items)+16), `{"items":[`...)
	for i := range items {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendItem(dst, &items[i], true)
	}
	return append(dst, "]}"...)
}

// scoring holds what the serving workloads share: the corpus the servers
// load, the model they serve, and the reference predictor the replies are
// checked against.
type scoring struct {
	sz      sizes
	tc      *trainCorpus
	data    *corpus.Dataset
	model   *core.Model
	pred    *core.Predictor
	stream  []int  // every token of the corpus, for unigram word draws
	queries []item // pool entry or batch contents of each op, by op.ref
}

// newScoring generates the serving corpus and trains the serving model.
func newScoring(sz sizes, seed uint64) (*scoring, error) {
	tc, err := fastCorpus(sz.ServeCorpus)
	if err != nil {
		return nil, err
	}
	cfg := trainConfig(sz.ServeC, sz.ServeK, sz.ServeSweeps, 1, seed)
	cfg.SampleLag = 5
	model, _, err := core.TrainRun(context.Background(), tc.data, cfg, core.RunOptions{})
	if err != nil {
		return nil, fmt.Errorf("train serving model: %w", err)
	}
	return scoringOver(sz, tc, model), nil
}

// scoringOver builds the scoring inputs over a corpus and a model trained
// on it; the reference predictor has the serving default TopComm of 5.
func scoringOver(sz sizes, tc *trainCorpus, model *core.Model) *scoring {
	s := &scoring{sz: sz, tc: tc, data: tc.data, model: model, pred: core.NewPredictor(model, 5)}
	for j := range s.data.Posts {
		s.data.Posts[j].Words.Each(func(id, n int) {
			for ; n > 0; n-- {
				s.stream = append(s.stream, id)
			}
		})
	}
	return s
}

func (s *scoring) bag(it *item) text.BagOfWords {
	if it.post >= 0 {
		return s.data.Posts[it.post].Words
	}
	return text.NewBagOfWords(it.words)
}

// hotPool is the BENCH_2/4 stream: a fixed pool of retweet tuples that
// name their post by index.
func (s *scoring) hotPool(r *rng.RNG) []item {
	pool := make([]item, s.sz.HotPool)
	for i := range pool {
		pool[i] = item{kind: "retweet", a: r.Intn(s.model.U), b: r.Intn(s.model.U),
			post: r.Intn(len(s.data.Posts))}
	}
	return pool
}

// coldPool is a pool of distinct queries far larger than the score cache,
// 70 % retweet and 10 % each link, time and topics, with explicit words.
func (s *scoring) coldPool(r *rng.RNG) []item {
	pool := make([]item, s.sz.ColdPool)
	for i := range pool {
		it := item{a: r.Intn(s.model.U), b: r.Intn(s.model.U), post: -1}
		switch x := r.Float64(); {
		case x < 0.7:
			it.kind = "retweet"
		case x < 0.8:
			it.kind = "link"
		case x < 0.9:
			it.kind = "time"
		default:
			it.kind = "topics"
		}
		if it.kind != "link" {
			it.words = make([]int, s.sz.ColdWords)
			for l := range it.words {
				it.words[l] = s.stream[r.Intn(len(s.stream))]
			}
		}
		pool[i] = it
	}
	return pool
}

// laneSpec is one periodic lane of an open-loop schedule.
type laneSpec struct {
	lane int
	rate float64 // operations per second
}

// schedule lays out each lane's operations over dur: operation j of a lane
// is due at a uniform point of its own j-th interval, so lanes never lock
// phase with each other and every run meets the same share of collisions.
// fill completes the request, except on laneRef, whose operations are all
// the reference round trip. The result is sorted by due time.
func schedule(r *rng.RNG, dur time.Duration, lanes []laneSpec, fill func(lane int, o *op)) []op {
	var ops []op
	for _, l := range lanes {
		n := int(l.rate * dur.Seconds())
		interval := float64(dur) / float64(max(n, 1))
		for j := 0; j < n; j++ {
			o := op{lane: l.lane, due: time.Duration((float64(j) + r.Float64()) * interval)}
			if l.lane == laneRef {
				refOp(&o)
			} else {
				fill(l.lane, &o)
			}
			ops = append(ops, o)
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	return ops
}

// scheduleHash identifies an operation schedule: due times, lanes and
// request bytes. The same seed yields the same hash.
func scheduleHash(scheds ...[]op) string {
	h := sha256.New()
	var b [8]byte
	for _, ops := range scheds {
		for i := range ops {
			binary.LittleEndian.PutUint64(b[:], uint64(ops[i].due))
			h.Write(b[:])
			h.Write([]byte{byte(ops[i].lane)})
			h.Write([]byte(ops[i].method))
			h.Write([]byte(ops[i].path))
			h.Write(ops[i].body)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Lanes of the scoring workloads. laneRef is the reference round trip to
// the echo server (hostref.go), scheduled like any other lane.
const (
	laneBatch = iota
	laneSingle
	laneRank
	laneRef
)

// refOp makes o a reference round trip; aimRef gives it its address.
func refOp(o *op) {
	o.lane, o.method, o.path, o.body = laneRef, http.MethodPost, "/echo", echoBody
}

// aimRef points the reference operations at the deployment's echo server,
// which has no address until it is started.
func aimRef(ref string, ops ...[]op) {
	for _, list := range ops {
		for i := range list {
			if list[i].lane == laneRef {
				list[i].url = ref + list[i].path
			}
		}
	}
}

// scoreLanes are the open-loop rates of score_hot or score_cold_routed.
func (sz sizes) scoreLanes(hot bool) []laneSpec {
	if hot {
		return []laneSpec{{laneBatch, sz.HotBatch}, {laneSingle, sz.HotSingle}, {laneRank, sz.HotRank}}
	}
	return []laneSpec{{laneBatch, sz.ColdBatch}, {laneSingle, sz.ColdSingle}, {laneRank, sz.ColdRank}}
}

// traffic is the generated request stream of one scoring workload.
type traffic struct {
	warm, open []op
	closed     []op // batches the closed loop cycles through
	ref        op   // the reference round trip the closed loop sends every RefEvery-th time
	hash       string
}

// aim points the traffic's reference operations at the echo server.
func (tr *traffic) aim(ref string) {
	aimRef(ref, tr.warm, tr.open)
	tr.ref.url = ref + tr.ref.path
}

// scoreTraffic builds the warm-up, open-loop and closed-loop requests of
// score_hot (hot=true: Zipf draws from the hot pool) or
// score_cold_routed (uniform draws from the cold pool). Every op's ref
// indexes s.queries, where a batch occupies BatchItems consecutive entries.
func (s *scoring) scoreTraffic(r *rng.RNG, hot bool, lanes []laneSpec, open time.Duration, closedOps int) *traffic {
	sz := s.sz
	var pool []item
	var next func() *item
	if hot {
		pool = s.hotPool(r)
		next = func() *item { return &pool[r.Zipf(len(pool), sz.HotZipfS)] }
	} else {
		pool = s.coldPool(r)
		next = func() *item { return &pool[r.Intn(len(pool))] }
	}
	s.queries = s.queries[:0]
	fill := func(lane int, o *op) {
		o.ref = len(s.queries)
		o.verify = r.Float64() < sz.CheckShare
		switch lane {
		case laneBatch:
			for n := 0; n < sz.BatchItems; n++ {
				s.queries = append(s.queries, *next())
			}
			o.method, o.path, o.items = http.MethodPost, "/v1/score/batch", sz.BatchItems
			o.body = batchBody(s.queries[o.ref:])
		case laneSingle:
			it := next()
			s.queries = append(s.queries, *it)
			o.method, o.path = http.MethodPost, singlePath[it.kind]
			o.body = appendItem(nil, it, false)
		case laneRank:
			s.queries = append(s.queries, item{kind: "rank", a: r.Intn(s.model.U)})
			o.method = http.MethodGet
			o.path = "/v1/rank/" + strconv.Itoa(s.queries[o.ref].a) + "?k=" + strconv.Itoa(sz.RankK)
		}
	}
	tr := &traffic{}
	refOp(&tr.ref)
	tr.warm = schedule(r, time.Duration(sz.Warmup*float64(time.Second)), lanes, fill)
	tr.open = schedule(r, open, lanes, fill)
	tr.closed = make([]op, closedOps)
	for i := range tr.closed {
		fill(laneBatch, &tr.closed[i])
	}
	tr.hash = scheduleHash(tr.warm, tr.open, tr.closed)
	return tr
}
