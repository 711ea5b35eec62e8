package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"

	"github.com/cold-diffusion/cold/internal/cluster"
	"github.com/cold-diffusion/cold/internal/core"
	"github.com/cold-diffusion/cold/internal/rng"
	"github.com/cold-diffusion/cold/internal/stats"
)

// slot is the value part of a scoring reply: one batch result slot, or the
// body of a single-score route.
type slot struct {
	Status string        `json:"status,omitempty"`
	Score  *float64      `json:"score,omitempty"`
	Slice  *int          `json:"slice,omitempty"`
	Topics []topicWeight `json:"topics,omitempty"`
}

type topicWeight struct {
	Topic  int     `json:"topic"`
	Weight float64 `json:"weight"`
}

type rankReply struct {
	User       int                    `json:"user"`
	Candidates []core.RankedCandidate `json:"candidates"`
}

// expect computes a query's answer from the benchmark's own copy of the
// model with core.Predictor and Model calls, the way the reply must read.
func (s *scoring) expect(it *item) slot {
	switch it.kind {
	case "retweet":
		v := s.pred.Score(it.a, it.b, s.bag(it))
		return slot{Score: &v}
	case "link":
		v := s.model.LinkScore(it.a, it.b)
		return slot{Score: &v}
	case "time":
		v := s.model.PredictTimestamp(it.a, s.bag(it))
		return slot{Slice: &v}
	default:
		post := s.pred.TopicPosterior(it.a, s.bag(it))
		var top []topicWeight
		for _, k := range stats.ArgTopK(post, min(3, len(post))) {
			top = append(top, topicWeight{Topic: k, Weight: post[k]})
		}
		return slot{Topics: top}
	}
}

// sameValue compares two slots' values bit for bit (a JSON float64 round
// trips exactly).
func sameValue(a, b slot) bool {
	a.Status, b.Status = "", ""
	return reflect.DeepEqual(a, b)
}

// routingUser is the user whose shard answers the query.
func routingUser(it *item) int {
	if it.kind == "retweet" {
		return it.b
	}
	return it.a
}

// verifier checks sampled replies of a scoring workload.
type verifier struct {
	s        *scoring
	ranker   *core.CommunityRanker
	dep      *deployment
	direct   *conn
	checked  int
	wrong    int
	unrouted int // routed replies that differ from the owning replica's
	compared int
	first    string // first mismatch, for the report
}

func newVerifier(s *scoring, dep *deployment) *verifier {
	return &verifier{s: s, dep: dep, direct: newConn(), ranker: core.NewCommunityRanker(s.model, 50)}
}

func (v *verifier) mismatch(format string, args ...any) {
	v.wrong++
	if v.first == "" {
		v.first = fmt.Sprintf(format, args...)
	}
}

// phase checks every reply the phase kept.
func (v *verifier) phase(ph *phase) {
	for i := range ph.ops {
		o, res := &ph.ops[i], &ph.res[i]
		if !o.verify || !res.ok {
			continue
		}
		switch o.lane {
		case laneBatch:
			var rep struct {
				Results []slot `json:"results"`
			}
			if err := json.Unmarshal(res.body, &rep); err != nil || len(rep.Results) != o.items {
				v.mismatch("batch reply has %d slots for %d items (%v)", len(rep.Results), o.items, err)
				continue
			}
			for n := range rep.Results {
				v.checked++
				if it := &v.s.queries[o.ref+n]; !sameValue(rep.Results[n], v.s.expect(it)) {
					v.mismatch("batch slot %d of %s differs from core.Predictor", n, it.kind)
				}
			}
		case laneSingle:
			var got slot
			it := &v.s.queries[o.ref]
			v.checked++
			if err := json.Unmarshal(res.body, &got); err != nil || !sameValue(got, v.s.expect(it)) {
				v.mismatch("single %s differs from core.Predictor (%v)", it.kind, err)
			}
			v.routedEqualsDirect(o, res, routingUser(it))
		case laneRank:
			var got rankReply
			user := v.s.queries[o.ref].a
			want := v.ranker.TopCandidates(user, v.s.pred.TopComm(user), v.s.sz.RankK)
			v.checked++
			if err := json.Unmarshal(res.body, &got); err != nil || got.User != user || !reflect.DeepEqual(got.Candidates, want) {
				v.mismatch("rank of user %d differs from core.CommunityRanker (%v)", user, err)
			}
			v.routedEqualsDirect(o, res, user)
		}
	}
}

// routedEqualsDirect re-sends a routed request to the replica that owns
// its user and requires the same value.
func (v *verifier) routedEqualsDirect(o *op, res *result, user int) {
	if v.dep.router == "" {
		return
	}
	v.compared++
	owner := v.dep.shards[cluster.ShardOf(user, len(v.dep.shards))]
	status, body := v.direct.do(o.method, owner+o.path, o.body)
	var a, b struct {
		slot
		Candidates []core.RankedCandidate `json:"candidates"`
	}
	if status != http.StatusOK || json.Unmarshal(body, &a) != nil || json.Unmarshal(res.body, &b) != nil ||
		!sameValue(a.slot, b.slot) || !reflect.DeepEqual(a.Candidates, b.Candidates) {
		v.unrouted++
	}
}

func (v *verifier) report(r *runResult) {
	r.check("sampled replies equal core.Predictor bit for bit", v.wrong == 0 && v.checked > 0,
		"%d values checked, %d differ %s", v.checked, v.wrong, v.first)
	if v.dep.router != "" {
		r.check("routed equals direct", v.unrouted == 0 && v.compared > 0,
			"%d requests re-sent to the owning replica, %d differ", v.compared, v.unrouted)
	}
	closeConns([]*conn{v.direct})
}

// closedBatches is how many distinct batches the closed loop cycles
// through: for the cold pool, more items than the score cache holds.
func closedBatches(hot bool) int {
	if hot {
		return 512
	}
	return 4096
}

// runScore is score_hot (hot=true) or score_cold_routed.
func runScore(e *env, hot bool) (*runResult, error) {
	name, topo := wScoreCold, topoRouted
	if hot {
		name, topo = wScoreHot, topoServe
	}
	r := newResult(e, name, false)
	var s *scoring
	var dep *deployment
	var tr *traffic
	teardown, err := e.timeSetup(r, func(dir string) (func() error, error) {
		var err error
		if s, err = newScoring(e.sz, e.seed); err != nil {
			return nil, err
		}
		data := s.data
		if !hot {
			data = nil // cold queries carry their words; the servers load no corpus
		}
		f, err := writeFiles(dir, s.model, data, topo)
		if err != nil {
			return nil, err
		}
		lanes := append(e.sz.scoreLanes(hot), laneSpec{laneRef, e.sz.RefRate})
		tr = s.scoreTraffic(rng.New(e.seed+1), hot, lanes, e.open(), closedBatches(hot))
		if dep, err = e.start(topo, f, data); err != nil {
			return nil, err
		}
		tr.aim(dep.ref)
		return dep.stop, nil
	})
	if err != nil {
		return nil, err
	}
	defer teardown()
	r.ScheduleHash = tr.hash

	conns := newConns(e.conns)
	defer closeConns(conns)
	base := dep.front()
	warm := runOpen(conns, base, tr.warm, replyOK)
	undo := quietGC()
	open := runOpen(conns, base, tr.open, replyOK)
	// Every RefEvery-th send of a closed-loop connection is the reference
	// round trip; the rest cycle through the batches.
	every := e.sz.RefEvery
	closed := runClosed(conns, base, e.closed(), func(k, n int) *op {
		if n%every == every-1 {
			return &tr.ref
		}
		return &tr.closed[(k*len(tr.closed)/len(conns)+n-n/every)%len(tr.closed)]
	}, replyOK)
	undo()

	nominal := echoNominalMS[name]
	openRef := &hostRef{nominal: nominal[0], ms: flatten(open.lane(laneRef, 1, e.open()))}
	closedRef := &hostRef{nominal: nominal[1], ms: flatten(closed.lane(laneRef, 1, e.closed()))}
	for lane, role := range []string{"primary", "secondary", "tertiary"} {
		r.setLatency(role, open.lane(lane, e.sz.Windows, e.open()), r.slow(lane, openRef))
	}
	batches := 0
	for i := range closed.res {
		if closed.ops[i].lane == laneBatch && closed.res[i].ok {
			batches++
		}
	}
	r.setRate(float64(batches*e.sz.BatchItems)/closed.wall.Seconds(), batches, r.slow(3, closedRef),
		fmt.Sprintf("ok items/s, %d connections, busy %.2f, one send in %d the reference", len(conns), closed.busyShare(), every))
	r.tallyPhase("warm-up (discarded)", warm)
	r.tallyPhase("open loop", open)
	r.tallyPhase("closed loop", closed)
	r.checkLate(open)

	v := newVerifier(s, dep)
	v.phase(open)
	v.phase(closed)
	v.report(r)
	if err := teardown(); err != nil {
		r.check("programs shut down cleanly", false, "%v", err)
	}
	return r, nil
}
