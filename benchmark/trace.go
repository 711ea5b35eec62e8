package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded interval: a layer boundary crossed by a request,
// or a direct-call replay of the same input under the same trace id.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. While off, the
// wrappers it hands out pass requests through untouched, which is how one
// deployment serves both legs of the tracing-overhead measurement.
type tracer struct {
	on    atomic.Bool
	ids   atomic.Uint64
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open is a span that has begun.
type open struct {
	t    *tracer
	span span
}

// begin opens a span, or returns nil while the tracer is off.
func (t *tracer) begin(trace, parent uint64, name string) *open {
	if !t.on.Load() {
		return nil
	}
	return &open{t, span{Trace: trace, ID: t.ids.Add(1), Parent: parent, Name: name,
		Start: int64(time.Since(t.t0))}}
}

// end records the span; ending a nil span does nothing.
func (o *open) end() {
	if o == nil {
		return
	}
	o.span.End = int64(time.Since(o.t.t0))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.span)
	o.t.mu.Unlock()
}

// The trace id and the causing span travel between processes' layers in
// two request headers, and inside a layer in the request context.
const (
	traceHeader  = "X-Bench-Trace"
	parentHeader = "X-Bench-Parent"
)

type spanKey struct{}

func stamp(h http.Header, s *span) {
	h.Set(traceHeader, strconv.FormatUint(s.Trace, 10))
	h.Set(parentHeader, strconv.FormatUint(s.ID, 10))
}

// wrap records one span of the given name around every request the
// handler serves that carries a trace id, and leaves the span in the
// request context for the layer's outgoing calls.
func (t *tracer) wrap(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trace, err := strconv.ParseUint(r.Header.Get(traceHeader), 10, 64)
		parent, _ := strconv.ParseUint(r.Header.Get(parentHeader), 10, 64)
		sp := t.begin(trace, parent, name)
		if err != nil || sp == nil {
			h.ServeHTTP(w, r)
			return
		}
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, &sp.span)))
		sp.end()
	})
}

// forwarder is the router's transport: it records a cluster.forward span
// around each forwarded attempt and stamps the trace on the outgoing
// request, so the replica's span names it as parent.
type forwarder struct {
	t    *tracer
	next http.RoundTripper
}

func (f forwarder) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, ok := req.Context().Value(spanKey{}).(*span)
	if !ok {
		return f.next.RoundTrip(req)
	}
	sp := f.t.begin(parent.Trace, parent.ID, "cluster.forward")
	if sp == nil {
		return f.next.RoundTrip(req)
	}
	out := req.Clone(req.Context())
	stamp(out.Header, &sp.span)
	resp, err := f.next.RoundTrip(out)
	sp.end()
	return resp, err
}

// hooks returns the in-process hosting hooks that trace every layer.
func (t *tracer) hooks() hooks {
	return hooks{wrap: t.wrap, client: &http.Client{Transport: forwarder{t, &http.Transport{
		MaxIdleConns: 64, MaxIdleConnsPerHost: 64}}}}
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns, per span name, every span's self time in
// microseconds: its duration minus the part of its interval that its
// child spans cover. A child outside its parent's interval (a direct-call
// replay) covers nothing.
func selfTimes(spans []span) map[string][]float64 {
	children := map[uint64][]*span{}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], &spans[i])
		}
	}
	out := map[string][]float64{}
	for i := range spans {
		s := &spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered)/1e3)
	}
	return out
}
