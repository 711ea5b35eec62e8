package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/cold-diffusion/cold/internal/rng"
)

// laneAck is the one lane of the ingest write stream; the reads beside it
// are a scoring stream of its own with laneBatch.
const laneAck = 0

// record is one generated ingest record.
type record struct {
	name    string
	newUser bool // first record of its user
}

// writes is the generated write stream of ingest_fresh.
type writes struct {
	open    []op // due-timed, for the open loop; with the reference lane when refRate > 0
	closed  []op // cycled by the closed loop
	records []record
}

// ingestWrites builds the write stream: a quarter of the records introduce
// a streamed user, the rest add a post to an earlier one. Each carries the
// words of a corpus post and a time slice.
func (s *scoring) ingestWrites(r *rng.RNG, rate, refRate float64, open time.Duration, closedOps int) *writes {
	w := &writes{}
	users := 0
	fill := func(_ int, o *op) {
		rec := record{newUser: users == 0 || r.Float64() < s.sz.NewUserRate}
		if rec.newUser {
			rec.name = "s" + strconv.Itoa(users)
			users++
		} else {
			rec.name = "s" + strconv.Itoa(r.Intn(users))
		}
		post := &s.data.Posts[r.Intn(len(s.data.Posts))]
		body := append([]byte(nil), `{"user":"`...)
		body = append(body, rec.name...)
		body = append(body, `","slice":`...)
		body = strconv.AppendInt(body, int64(post.Time), 10)
		body = append(body, `,"words":{"IDs":`...)
		body = appendInts(body, post.Words.IDs)
		body = append(body, `,"Counts":`...)
		body = appendInts(body, post.Words.Counts)
		body = append(body, "}}"...)
		o.lane, o.method, o.path, o.body = laneAck, http.MethodPost, "/v1/ingest", body
		o.ref = len(w.records)
		w.records = append(w.records, rec)
	}
	lanes := []laneSpec{{laneAck, rate}}
	if refRate > 0 {
		lanes = append(lanes, laneSpec{laneRef, refRate})
	}
	w.open = schedule(r, open, lanes, fill)
	// schedule sorts by due time; a lane's ops are generated in that order
	// already, so refs still ascend and "earlier user" stays earlier.
	w.closed = make([]op, closedOps)
	for i := range w.closed {
		fill(laneAck, &w.closed[i])
	}
	return w
}

// sighting is one observation of the served model's size.
type sighting struct {
	at    time.Time
	users int
}

// watcher is the reader's side of the freshness probe: every read reply
// carries the serving generation, and on a change the reader asks
// /v1/model once for the user count.
type watcher struct {
	base string
	mu   sync.Mutex
	gen  uint64
	seen []sighting
}

func (w *watcher) judge(c *conn, o *op, r *result, body []byte) bool {
	ok := replyOK(c, o, r, body)
	gen, found := uintField(body, `"generation":`)
	if !found {
		return ok
	}
	w.mu.Lock()
	changed := gen != w.gen
	w.gen = gen
	w.mu.Unlock()
	if changed {
		w.look(c)
	}
	return ok
}

// look records the served user count now.
func (w *watcher) look(c *conn) int {
	status, body := c.do(http.MethodGet, w.base+"/v1/model", nil)
	users, found := uintField(body, `"users":`)
	if status != http.StatusOK || !found {
		return -1
	}
	w.mu.Lock()
	w.seen = append(w.seen, sighting{time.Now(), int(users)})
	w.mu.Unlock()
	return int(users)
}

// ackJudge accepts a durable ack and keeps its sequence number.
func ackJudge(_ *conn, _ *op, r *result, body []byte) bool {
	seq, found := uintField(body, `"seq":`)
	r.aux = seq
	return r.status == http.StatusOK && found
}

type ingestStatus struct {
	LastSeq    uint64 `json:"last_seq"`
	AppliedSeq uint64 `json:"applied_seq"`
	QueueDepth int    `json:"queue_depth"`
	Users      int    `json:"streamed_users"`
}

func getStatus(c *conn, base string) (ingestStatus, bool) {
	var st ingestStatus
	status, body := c.do(http.MethodGet, base+"/v1/ingest/status", nil)
	return st, status == http.StatusOK && json.Unmarshal(body, &st) == nil
}

// runIngest is ingest_fresh: durable writes beside reads against a
// coldserve that follows the daemon's publish directory.
func runIngest(e *env) (*runResult, error) {
	r := newResult(e, wIngestFrsh, false)
	var s *scoring
	var dep *deployment
	var wr *writes
	var reads *traffic
	teardown, err := e.timeSetup(r, func(dir string) (func() error, error) {
		var err error
		if s, err = newScoring(e.sz, e.seed); err != nil {
			return nil, err
		}
		f, err := writeFiles(dir, s.model, s.data, topoIngest)
		if err != nil {
			return nil, err
		}
		rr := rng.New(e.seed + 1)
		wr = s.ingestWrites(rr, e.sz.IngestWrite, e.sz.RefRate/2, e.open(), 8192)
		reads = s.scoreTraffic(rr, true, []laneSpec{{laneBatch, e.sz.IngestRead}, {laneRef, e.sz.RefRate / 2}}, e.open(), 0)
		if dep, err = e.start(topoIngest, f, s.data); err != nil {
			return nil, err
		}
		aimRef(dep.ref, wr.open)
		reads.aim(dep.ref)
		return dep.stop, nil
	})
	if err != nil {
		return nil, err
	}
	defer teardown()
	r.ScheduleHash = scheduleHash(wr.open, wr.closed, reads.warm, reads.open)

	conns := newConns(e.conns)
	defer closeConns(conns)
	writers, readers := conns[:len(conns)/2], conns[len(conns)/2:]
	watch := &watcher{base: dep.serve}
	warm := runOpen(readers, dep.serve, reads.warm, replyOK)
	undo := quietGC()
	var ackPh, readPh *phase
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); ackPh = runOpen(writers, dep.ingest, wr.open, ackJudge) }()
	go func() { defer wg.Done(); readPh = runOpen(readers, dep.serve, reads.open, watch.judge) }()
	wg.Wait()
	every := e.sz.RefEvery
	closed := runClosed(conns, dep.ingest, e.closed(), func(k, n int) *op {
		if n%every == every-1 {
			return &reads.ref
		}
		return &wr.closed[(k*len(wr.closed)/len(conns)+n-n/every)%len(wr.closed)]
	}, ackJudge)
	undo()

	// Drain: every acked record applied, then every streamed user served.
	type acked struct {
		seq  uint64
		name string
	}
	var acks []acked
	names := map[string]bool{}
	for _, ph := range []*phase{ackPh, closed} {
		for i := range ph.res {
			if ph.res[i].ok && ph.ops[i].lane == laneAck {
				name := wr.records[ph.ops[i].ref].name
				acks = append(acks, acked{ph.res[i].aux, name})
				names[name] = true
			}
		}
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i].seq < acks[j].seq })
	var st ingestStatus
	applied := false
	for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		var ok bool
		if st, ok = getStatus(conns[0], dep.ingest); ok && len(acks) > 0 && st.AppliedSeq >= acks[len(acks)-1].seq {
			applied = true
			break
		}
	}
	want := s.model.U + len(names)
	served := -1
	for deadline := time.Now().Add(10 * time.Second); applied && time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if served = watch.look(conns[0]); served >= want {
			break
		}
	}

	// A streamed user's model index is its first-appearance rank in WAL
	// order; it is fresh at the first sighting of a model that holds it.
	sort.Slice(watch.seen, func(i, j int) bool { return watch.seen[i].at.Before(watch.seen[j].at) })
	index := map[string]int{}
	for _, a := range acks {
		if _, known := index[a.name]; !known {
			index[a.name] = s.model.U + len(index)
		}
	}
	fresh := make([][]float64, 1)
	probes, unresolved := 0, 0
	for i := range ackPh.ops {
		rec := &wr.records[ackPh.ops[i].ref]
		if ackPh.ops[i].lane != laneAck || !rec.newUser || !ackPh.res[i].ok {
			continue
		}
		probes++
		due := ackPh.start.Add(ackPh.ops[i].due)
		at := sort.Search(len(watch.seen), func(k int) bool {
			return watch.seen[k].users > index[rec.name] && watch.seen[k].at.After(due)
		})
		if at == len(watch.seen) {
			unresolved++
			continue
		}
		fresh[0] = append(fresh[0], float64(watch.seen[at].at.Sub(due))/1e6)
	}

	nominal := echoNominalMS[wIngestFrsh]
	ackRef := &hostRef{nominal: nominal[0], ms: flatten(ackPh.lane(laneRef, 1, e.open()))}
	readRef := &hostRef{nominal: nominal[0], ms: flatten(readPh.lane(laneRef, 1, e.open()))}
	closedRef := &hostRef{nominal: nominal[1], ms: flatten(closed.lane(laneRef, 1, e.closed()))}
	r.setLatency("primary", ackPh.lane(laneAck, e.sz.Windows, e.open()), r.slow(0, ackRef))
	r.setLatency("secondary", fresh, r.slow(1, nil))
	r.setLatency("tertiary", readPh.lane(laneBatch, e.sz.Windows, e.open()), r.slow(2, readRef))
	sustained := 0
	for i := range closed.res {
		if closed.ops[i].lane == laneAck && closed.res[i].ok {
			sustained++
		}
	}
	r.setRate(float64(sustained)/closed.wall.Seconds(), sustained, r.slow(3, closedRef),
		fmt.Sprintf("acks/s, %d connections, one send in %d the reference", len(conns), every))
	r.tallyPhase("warm-up reads (discarded)", warm)
	r.tallyPhase("open loop writes", ackPh)
	r.tallyPhase("open loop reads", readPh)
	r.tallyPhase("closed loop writes", closed)
	r.tally("freshness probes", probes, probes-unresolved)
	r.checkLate(ackPh, readPh)

	contiguous := len(acks) > 0
	for i := 1; i < len(acks); i++ {
		contiguous = contiguous && acks[i].seq == acks[i-1].seq+1
	}
	r.check("acked seq contiguous", contiguous, "%d acks", len(acks))
	r.check("applied_seq equals last_seq after drain", applied && st.AppliedSeq == st.LastSeq,
		"applied %d, last %d", st.AppliedSeq, st.LastSeq)
	r.check("streamed_users equals names sent", st.Users == len(names), "%d streamed, %d sent", st.Users, len(names))
	r.check("every freshness probe resolved", unresolved == 0 && served >= want,
		"%d probes, %d unresolved, %d users served of %d", probes, unresolved, served, want)

	v := newVerifier(s, dep)
	v.phase(readPh)
	v.report(r)
	if err := teardown(); err != nil {
		r.check("programs shut down cleanly", false, "%v", err)
	}
	return r, nil
}
