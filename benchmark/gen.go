package main

import (
	"bytes"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// op is one scheduled operation of the load generator.
type op struct {
	due    time.Duration // offset from the phase start at which it is due
	lane   int           // which latency series it belongs to
	method string
	path   string // joined to the phase's base URL
	url    string // when set, sent here instead: a reference operation (aimRef)
	body   []byte
	items  int  // result slots a 200 reply must carry with status ok; 0 for none
	verify bool // keep the reply for the post-phase correctness check
	ref    int  // workload's own index (pool entry, record number)
}

// target is where the op goes in a phase whose traffic enters at base.
func (o *op) target(base string) string {
	if o.url != "" {
		return o.url
	}
	return base + o.path
}

// judged is the judge's verdict on a reply; a reference operation has only
// to come back.
func (o *op) judged(judge respondFunc, c *conn, r *result, body []byte) bool {
	if o.lane == laneRef {
		return r.status == http.StatusOK
	}
	return judge(c, o, r, body)
}

// result is what the generator recorded for one op.
type result struct {
	latMS  float64 // due time (open loop) or send time (closed loop) to last body byte
	lateMS float64 // send start minus due time
	idle   bool    // a connection was free before the due time: lateness is the generator's own
	ok     bool
	status int
	aux    uint64 // a number the judge took from the reply (an ack's seq)
	body   []byte // copy of the reply, when op.verify
}

// conn is one generator connection: a client whose transport may hold a
// single connection per host, and the goroutine that owns it.
type conn struct {
	client *http.Client
	buf    bytes.Buffer
	busy   time.Duration
	tracer *tracer // traced runs: records a gen.request span per request while on
	last   span    // the span of the last traced request
}

func newConn() *conn {
	return &conn{client: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		DialContext:         (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
	}, Timeout: 10 * time.Second}}
}

func newConns(n int) []*conn {
	cs := make([]*conn, n)
	for i := range cs {
		cs[i] = newConn()
	}
	return cs
}

func closeConns(cs []*conn) {
	for _, c := range cs {
		c.client.CloseIdleConnections()
	}
}

// do sends one request and reads the whole reply. The returned bytes are
// valid until the connection's next do. A transport failure reads as
// status 0.
func (c *conn) do(method, url string, body []byte) (int, []byte) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.tracer != nil {
		if sp := c.tracer.begin(c.tracer.ids.Add(1), 0, "gen.request"); sp != nil {
			stamp(req.Header, &sp.span)
			defer func() {
				sp.end()
				c.last = sp.span
			}()
		}
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, c.buf.Bytes()
}

// respondFunc judges one reply on the sender's goroutine, after its
// latency has been taken. What it spends delays that connection's next
// send and so counts as lateness; it must stay cheap.
type respondFunc func(c *conn, o *op, r *result, body []byte) bool

var statusOK = []byte(`"status":"ok"`)

// replyOK is the default judgement: 200, and one ok slot per item.
func replyOK(_ *conn, o *op, r *result, body []byte) bool {
	return r.status == http.StatusOK && (o.items == 0 || bytes.Count(body, statusOK) == o.items)
}

// uintField reads the unsigned number that follows key in a JSON reply.
func uintField(body []byte, key string) (uint64, bool) {
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return 0, false
	}
	j := i + len(key)
	k := j
	for k < len(body) && body[k] >= '0' && body[k] <= '9' {
		k++
	}
	v, err := strconv.ParseUint(string(body[j:k]), 10, 64)
	return v, err == nil
}

// phase is one run of the generator over a set of connections.
type phase struct {
	ops   []op
	res   []result
	start time.Time
	wall  time.Duration
	busy  time.Duration // summed over connections
	conns int
}

// runOpen sends ops, which are sorted by due time, on the given
// connections. Each connection takes the next op in schedule order, waits
// until it is due and sends it; an op that finds every connection still
// waiting on a reply is sent late, and its latency, taken from the due
// time, includes that wait.
func runOpen(conns []*conn, base string, ops []op, judge respondFunc) *phase {
	ph := &phase{ops: ops, res: make([]result, len(ops)), conns: len(conns)}
	var next atomic.Int64
	var wg sync.WaitGroup
	ph.start = time.Now()
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			c.busy = 0
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				o := &ops[i]
				due := ph.start.Add(o.due)
				r := &ph.res[i]
				r.idle = time.Until(due) > 0
				sleepUntil(due)
				t0 := time.Now()
				status, body := c.do(o.method, o.target(base), o.body)
				t1 := time.Now()
				c.busy += t1.Sub(t0)
				r.latMS = float64(t1.Sub(due)) / 1e6
				r.lateMS = float64(t0.Sub(due)) / 1e6
				r.status = status
				if o.verify {
					r.body = append([]byte(nil), body...)
				}
				r.ok = o.judged(judge, c, r, body)
			}
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(ph.start)
	for _, c := range conns {
		ph.busy += c.busy
	}
	return ph
}

// runClosed has every connection send its next op as soon as the previous
// reply is in, for d. pick returns the n-th op of connection k.
func runClosed(conns []*conn, base string, d time.Duration, pick func(k, n int) *op, judge respondFunc) *phase {
	ph := &phase{conns: len(conns)}
	per := make([][]result, len(conns))
	perOps := make([][]op, len(conns))
	var wg sync.WaitGroup
	ph.start = time.Now()
	end := ph.start.Add(d)
	for k, c := range conns {
		wg.Add(1)
		go func(k int, c *conn) {
			defer wg.Done()
			c.busy = 0
			for n := 0; time.Now().Before(end); n++ {
				o := pick(k, n)
				t0 := time.Now()
				status, body := c.do(o.method, o.target(base), o.body)
				t1 := time.Now()
				c.busy += t1.Sub(t0)
				r := result{latMS: float64(t1.Sub(t0)) / 1e6, status: status}
				if o.verify {
					r.body = append([]byte(nil), body...)
				}
				r.ok = o.judged(judge, c, &r, body)
				per[k] = append(per[k], r)
				perOps[k] = append(perOps[k], *o)
			}
		}(k, c)
	}
	wg.Wait()
	ph.wall = time.Since(ph.start)
	for k, c := range conns {
		ph.busy += c.busy
		ph.res = append(ph.res, per[k]...)
		ph.ops = append(ph.ops, perOps[k]...)
	}
	return ph
}

// lane returns the latencies of one lane's ok replies, split into
// `windows` equal windows of the schedule by due time.
func (ph *phase) lane(lane, windows int, span time.Duration) [][]float64 {
	byWindow := make([][]float64, windows)
	for i := range ph.ops {
		if ph.ops[i].lane != lane || !ph.res[i].ok {
			continue
		}
		w := int(int64(ph.ops[i].due) * int64(windows) / int64(span))
		w = max(0, min(w, windows-1))
		byWindow[w] = append(byWindow[w], ph.res[i].latMS)
	}
	return byWindow
}

func flatten(ws [][]float64) []float64 {
	var all []float64
	for _, w := range ws {
		all = append(all, w...)
	}
	return all
}

// counts returns how many ops the phase sent and how many replies were ok.
func (ph *phase) counts() (sent, ok int) {
	for i := range ph.res {
		if ph.res[i].ok {
			ok++
		}
	}
	return len(ph.res), ok
}

// lateP99 returns two 99th percentiles of send start minus due time over
// open-loop phases. all is over every op: sleep overshoot and waits for a
// free connection alike, so a stalled reply raises it (and the latency of
// the ops behind it, which is taken from the due time). own is over the
// ops that found a connection free before they were due: what is left is
// the generator's own lateness, and a run in which that is large measured
// the generator, not the programs.
func lateP99(phases ...*phase) (all, own float64) {
	var a, o []float64
	for _, ph := range phases {
		for i := range ph.res {
			a = append(a, ph.res[i].lateMS)
			if ph.res[i].idle {
				o = append(o, ph.res[i].lateMS)
			}
		}
	}
	return percentile(sortedCopy(a), 0.99), percentile(sortedCopy(o), 0.99)
}

// busyShare is the share of connection time spent between send and reply.
func (ph *phase) busyShare() float64 {
	if ph.wall <= 0 || ph.conns == 0 {
		return 0
	}
	return float64(ph.busy) / (float64(ph.wall) * float64(ph.conns))
}

// quietGC keeps the generator's own collector out of a measured phase:
// with the request pool live, a collection marks tens of megabytes on a
// core the measured programs need. It collects once, then switches the
// collector off under a memory limit, and returns the undo.
func quietGC() func() {
	runtime.GC()
	old := debug.SetGCPercent(-1)
	limit := debug.SetMemoryLimit(2 << 30)
	return func() {
		debug.SetGCPercent(old)
		debug.SetMemoryLimit(limit)
	}
}
