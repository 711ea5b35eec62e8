package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/cold-diffusion/cold/internal/cluster"
	"github.com/cold-diffusion/cold/internal/core"
	"github.com/cold-diffusion/cold/internal/corpus"
	"github.com/cold-diffusion/cold/internal/ingest"
	"github.com/cold-diffusion/cold/internal/obs"
	"github.com/cold-diffusion/cold/internal/serve"
)

// topology is the set of programs a workload runs against.
type topology int

const (
	topoServe  topology = iota // one coldserve
	topoRouted                 // coldrouter in front of two shard replicas
	topoIngest                 // coldingest -daemon publishing to a coldserve that polls
)

// shardCount is the replica count of the routed topology.
const shardCount = 2

// deployment is a started topology: base URLs and the way to stop it.
type deployment struct {
	serve  string   // the coldserve traffic goes to (topoServe, topoIngest)
	router string   // topoRouted
	shards []string // topoRouted: replica of shard i
	ingest string   // topoIngest
	ref    string   // the echo server every topology has beside it (hostref.go)
	stop   func() error
}

// front is where scoring traffic enters the deployment.
func (d *deployment) front() string {
	if d.router != "" {
		return d.router
	}
	return d.serve
}

// files are the generated inputs a deployment's programs read.
type files struct {
	dir   string
	model string // trained model, JSON
	data  string // corpus, JSON; "" when queries carry their words
	live  string // topoIngest: the publish path coldserve follows
	wal   string
}

// writeFiles saves the model (and the corpus, when the traffic names posts
// by index) under dir, and seeds the publish directory with the base model
// so the follower has something to serve before the first fold.
func writeFiles(dir string, model *core.Model, data *corpus.Dataset, topo topology) (*files, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f := &files{dir: dir, model: filepath.Join(dir, "model.json")}
	if err := model.SaveFile(f.model); err != nil {
		return nil, err
	}
	if data != nil {
		f.data = filepath.Join(dir, "data.json")
		if err := data.SaveFile(f.data); err != nil {
			return nil, err
		}
	}
	if topo == topoIngest {
		f.live = filepath.Join(dir, "live", "model.json")
		f.wal = filepath.Join(dir, "wal")
		if err := os.MkdirAll(filepath.Dir(f.live), 0o755); err != nil {
			return nil, err
		}
		if err := model.SaveFile(f.live); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// ---- child processes ----

// buildBinaries compiles the three measured programs into dir.
func buildBinaries(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator),
		"./cmd/coldserve", "./cmd/coldrouter", "./cmd/coldingest")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go build: %w\n%s", err, out.String())
	}
	return nil
}

// child is one started program.
type child struct {
	name string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed when Wait has returned
	err  error
}

func startChild(binDir, logDir, name string, args ...string) (*child, error) {
	logf, err := os.Create(filepath.Join(logDir, fmt.Sprintf("%s-%d.log", name, time.Now().UnixNano())))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(binDir, name), args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = childAttr()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	c := &child{name: name, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		c.err = cmd.Wait()
		close(c.done)
	}()
	return c, nil
}

// stop asks the program to drain (SIGTERM), waits for it, and kills it if
// it has not ended after ten seconds.
func (c *child) stop() error {
	defer c.log.Close()
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // already exited: Wait reports it
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
		return fmt.Errorf("%s: killed after ignoring SIGTERM for 10s", c.name)
	}
	if c.err != nil {
		tail, _ := os.ReadFile(c.log.Name())
		return fmt.Errorf("%s: %w\n%s", c.name, c.err, lastLines(tail, 10))
	}
	return nil
}

func lastLines(b []byte, n int) string {
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	return strings.Join(lines[max(0, len(lines)-n):], "\n")
}

// waitReady polls url until it answers 200, the child exits, or 20 s pass.
func waitReady(url string, c *child) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if c != nil {
			select {
			case <-c.done:
				tail, _ := os.ReadFile(c.log.Name())
				return fmt.Errorf("%s exited before it was ready: %v\n%s", c.name, c.err, lastLines(tail, 10))
			default:
			}
		}
		resp, err := client.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready after 20s", url)
}

// startChildren starts the topology as child processes of the shipped
// binaries with their shipped defaults; only addresses, paths and the
// flags the workload is defined by are passed.
func startChildren(binDir string, topo topology, f *files, sz sizes) (*deployment, error) {
	var kids []*child
	stopAll := func() error {
		var errs []error
		for i := len(kids) - 1; i >= 0; i-- {
			errs = append(errs, kids[i].stop())
		}
		return errors.Join(errs...)
	}
	start := func(name, ready string, args ...string) (string, error) {
		addr, err := freeAddr()
		if err != nil {
			return "", err
		}
		args = append([]string{"-addr", addr, "-log-level", "error"}, args...)
		c, err := startChild(binDir, f.dir, name, args...)
		if err != nil {
			return "", err
		}
		kids = append(kids, c)
		base := "http://" + addr
		return base, waitReady(base+ready, c)
	}
	serveArgs := func(model string, extra ...string) []string {
		args := []string{"-model", model}
		if f.data != "" {
			args = append(args, "-data", f.data)
		}
		return append(args, extra...)
	}

	// The reference server is this program again, in its -echo mode.
	startEcho := func() (string, error) {
		exe, err := os.Executable()
		if err != nil {
			return "", err
		}
		addr, err := freeAddr()
		if err != nil {
			return "", err
		}
		c, err := startChild(filepath.Dir(exe), f.dir, filepath.Base(exe), "-echo", addr)
		if err != nil {
			return "", err
		}
		kids = append(kids, c)
		return "http://" + addr, waitReady("http://"+addr+"/echo", c)
	}

	d := &deployment{stop: stopAll}
	var err error
	if d.ref, err = startEcho(); err != nil {
		return nil, errors.Join(err, stopAll())
	}
	switch topo {
	case topoServe:
		d.serve, err = start("coldserve", "/v1/readyz", serveArgs(f.model)...)
	case topoRouted:
		for i := 0; i < shardCount && err == nil; i++ {
			var u string
			u, err = start("coldserve", "/v1/readyz", serveArgs(f.model,
				"-shard-index", strconv.Itoa(i), "-shard-count", strconv.Itoa(shardCount))...)
			d.shards = append(d.shards, u)
		}
		if err == nil {
			d.router, err = start("coldrouter", "/v1/healthz", "-shards", strings.Join(d.shards, "|"))
		}
	case topoIngest:
		// -shed-policy block: the closed loop offers more than the fold
		// loop drains, and a trusted bulk writer is what block is for; the
		// writers then measure the sustained rate and no write fails. The
		// open loop never fills the queue, so it reads the same either way.
		d.ingest, err = start("coldingest", "/v1/healthz", "-daemon", "-model", f.model,
			"-wal-dir", f.wal, "-publish", f.live, "-fold-every", sz.FoldEvery, "-sync-every", "1",
			"-shed-policy", "block")
		if err == nil {
			d.serve, err = start("coldserve", "/v1/readyz",
				serveArgs(filepath.Dir(f.live), "-poll", sz.ServePoll)...)
		}
	}
	if err != nil {
		return nil, errors.Join(err, stopAll())
	}
	return d, nil
}

// ---- in-process hosting (smoke test and traced runs) ----

// hooks lets the traced run observe the hosted layers: wrap decorates each
// layer's Handler, and client is the router's forwarding client. The zero
// value hosts the layers bare.
type hooks struct {
	wrap   func(layer string, h http.Handler) http.Handler
	client *http.Client
}

func (hk hooks) wrapped(layer string, h http.Handler) http.Handler {
	if hk.wrap == nil {
		return h
	}
	return hk.wrap(layer, h)
}

// hosted is an in-process deployment: the same topology built from the
// layers' public constructors, with the live objects exposed for the
// layer battery's direct calls.
type hosted struct {
	deployment
	mgr      *serve.Manager  // of the replica at d.serve
	srv      *serve.Server   // the replica at d.serve
	replicas []*serve.Server // every replica of the topology
	rt       *cluster.Router
	rtM      *cluster.Metrics
	ing      *ingest.Ingester
	ingM     *ingest.Metrics
}

// listen serves h on a fresh loopback port and returns its base URL and
// the way to close it.
func listen(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = hs.Serve(ln) // returns ErrServerClosed on Close
	}()
	return "http://" + ln.Addr().String(), func() { hs.Close(); wg.Wait() }, nil
}

func quiet(string, ...any) {}

// startHosted builds the topology in this process.
func startHosted(topo topology, f *files, data *corpus.Dataset, sz sizes, hk hooks) (*hosted, error) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var closers []func()
	h := &hosted{}
	var once sync.Once
	var stopErr error
	h.stop = func() error {
		once.Do(func() {
			for i := len(closers) - 1; i >= 0; i-- {
				closers[i]()
			}
			if h.ing != nil {
				dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
				stopErr = h.ing.Drain(dctx)
				dcancel()
			}
			cancel()
			wg.Wait()
		})
		return stopErr
	}
	fail := func(err error) (*hosted, error) { return nil, errors.Join(err, h.stop()) }
	serveOn := func(layer string, hd http.Handler) (string, error) {
		u, closeFn, err := listen(hk.wrapped(layer, hd))
		if err == nil {
			closers = append(closers, closeFn)
		}
		return u, err
	}
	// replica builds and serves one coldserve as cmd/coldserve does.
	replica := func(model string, poll time.Duration, shard, shards int) (*serve.Manager, *serve.Server, string, error) {
		mt := serve.NewMetrics(obs.NewRegistry())
		mgr := serve.NewManager(serve.ManagerConfig{Path: model, TopComm: 5, RankK: 50, Poll: poll, Logf: quiet, Metrics: mt})
		if err := mgr.LoadInitial(ctx); err != nil {
			return nil, nil, "", err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			mgr.Watch(ctx)
		}()
		cfg := serve.Config{Logf: quiet, Metrics: mt}
		if shards > 0 {
			cfg.ShardIndex, cfg.ShardCount = shard, shards
			cfg.ShardOwner = func(user int) bool { return cluster.ShardOf(user, shards) == shard }
		}
		srv := serve.New(cfg, mgr, data)
		h.replicas = append(h.replicas, srv)
		u, err := serveOn("serve.handle", srv.Handler())
		return mgr, srv, u, err
	}
	poll, _ := time.ParseDuration(sz.ServePoll)
	fold, _ := time.ParseDuration(sz.FoldEvery)

	var err error
	var closeEcho func()
	if h.ref, closeEcho, err = listen(echoHandler()); err != nil {
		return fail(err)
	}
	closers = append(closers, closeEcho)
	switch topo {
	case topoServe:
		if h.mgr, h.srv, h.serve, err = replica(f.model, 0, 0, 0); err != nil {
			return fail(err)
		}
	case topoRouted:
		pools := make([][]string, shardCount)
		for i := range pools {
			_, _, u, err := replica(f.model, 0, i, shardCount)
			if err != nil {
				return fail(err)
			}
			h.shards = append(h.shards, u)
			pools[i] = []string{u}
		}
		h.rtM = cluster.NewMetrics(obs.NewRegistry())
		if h.rt, err = cluster.New(cluster.Config{Shards: pools, Logf: quiet, Metrics: h.rtM, Client: hk.client}); err != nil {
			return fail(err)
		}
		h.rt.StartProbes(ctx)
		if h.router, err = serveOn("cluster.handle", h.rt.Handler()); err != nil {
			return fail(err)
		}
	case topoIngest:
		base, err := core.LoadModelFile(f.model)
		if err != nil {
			return fail(err)
		}
		h.ingM = ingest.NewMetrics(obs.NewRegistry())
		if h.ing, _, err = ingest.New(ingest.Config{WALDir: f.wal, Base: base, PublishPath: f.live,
			FoldEvery: fold, Policy: ingest.PolicyBlock, SyncEvery: 1, Logf: quiet, Metrics: h.ingM}); err != nil {
			return fail(err)
		}
		h.ing.Start(ctx)
		if h.ingest, err = serveOn("ingest.handle", ingest.NewServer(h.ing, nil).Handler()); err != nil {
			return fail(err)
		}
		if h.mgr, h.srv, h.serve, err = replica(filepath.Dir(f.live), poll, 0, 0); err != nil {
			return fail(err)
		}
	}
	return h, nil
}

// scrape reads a Prometheus text page and sums the samples of each metric
// name over its label sets. Histogram series keep their suffixes.
func scrape(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, nil
}
