// Command benchmark is the one benchmark of the whole pipeline: it builds
// the real coldserve, coldrouter and coldingest, runs them as child
// processes, drives four workloads from this one generator process, checks
// the answers, and prints every metric of BENCHMARK.json by name.
//
//	go run ./benchmark -seed 1 -out results.json          the whole suite
//	go run ./benchmark -repeat 5 -out sets.json           five sets, with medians and quartiles
//	go run ./benchmark -compare old.json new.json         the noise-aware gate
//	go run ./benchmark --workload score_hot --seed 1 --seconds 20 --trace 0
//
// The last form is what BENCHMARK.json's command runs (through run.sh,
// which keeps the Go build cache inside the checkout); it prints one JSON
// object as the last line of standard output. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// buildDir holds everything the benchmark writes: the built programs and
// each run's scratch files. It is relative to the working directory, which
// is the root of the checkout.
const buildDir = ".bench_build"

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

// host describes where a result was measured.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
	Conns      int    `json:"generator_connections"`
}

func thisHost() host {
	sha := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		sha = strings.TrimSpace(string(out))
	}
	return host{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), sha, genConns()}
}

// resultSet is one run of the whole suite: every workload untraced, then
// traced.
type resultSet struct {
	Seed     uint64       `json:"seed"`
	Untraced []*runResult `json:"untraced"`
	Traced   []*runResult `json:"traced"`
}

// resultFile is what -out writes.
type resultFile struct {
	Schema  string      `json:"schema"`
	Host    host        `json:"host"`
	Seconds float64     `json:"seconds"`
	Sets    []resultSet `json:"sets"`
}

func main() {
	workload := flag.String("workload", "", "run one workload and print one JSON object (the BENCHMARK.json contract)")
	seed := flag.Uint64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", defaultSeconds, "measured seconds per run")
	trace := flag.Int("trace", 0, "with -workload: 1 runs the traced per-layer run, 0 the end-to-end one")
	out := flag.String("out", "", "suite: write the results here as JSON")
	repeat := flag.Int("repeat", 1, "suite: run this many sets, seeds seed, seed+1, ...")
	echo := flag.String("echo", "", "serve the reference round trip on this address until SIGTERM (the benchmark starts this itself)")
	compare := flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	flag.Parse()

	var err error
	switch {
	case *echo != "":
		err = serveEcho(*echo)
	case *compare:
		err = compareFiles(flag.Args(), os.Stdout)
	case *workload != "":
		err = driverRun(*workload, *seed, *seconds, *trace == 1)
	default:
		err = suite(*seed, *seconds, *repeat, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// prepare builds the programs and makes the scratch directory of this
// process. The returned cleanup removes the scratch directory.
func prepare(sz sizes, seed uint64, seconds float64) (*env, func(), error) {
	if _, err := os.Stat("go.mod"); err != nil {
		return nil, nil, fmt.Errorf("run from the root of the repository: %w", err)
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "bin"))
	if err != nil {
		return nil, nil, err
	}
	if err := buildBinaries(bin); err != nil {
		return nil, nil, err
	}
	work, err := filepath.Abs(filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, nil, err
	}
	e := &env{sz: sz, seed: seed, seconds: seconds, binDir: bin, work: work, traceDir: buildDir,
		conns: genConns(), setupReps: 3}
	return e, func() { os.RemoveAll(work) }, nil
}

// driverRun is one run of one workload under the BENCHMARK.json contract:
// the report goes to standard error and the last line of standard output
// is the result object.
func driverRun(workload string, seed uint64, seconds float64, traced bool) error {
	e, cleanup, err := prepare(fullSizes(seed), seed, seconds)
	if err != nil {
		return err
	}
	defer cleanup()
	r, err := runWorkload(e, workload, traced)
	if err != nil {
		return err
	}
	r.print(os.Stderr)
	list := endToEnd
	if traced {
		list = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, map[string]metric{}}
	for _, m := range list {
		v, ok := r.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("%s did not produce %s", workload, m.Name)
		}
		line.Metrics[m.Name] = metric{v.Value, v.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// suite runs every workload, untraced then traced, `repeat` times.
func suite(seed uint64, seconds float64, repeat int, out string) error {
	file := resultFile{Schema: "cold-benchmark/1", Host: thisHost(), Seconds: seconds}
	failed := 0
	for n := 0; n < repeat; n++ {
		s := seed + uint64(n)
		e, cleanup, err := prepare(fullSizes(s), s, seconds)
		if err != nil {
			return err
		}
		set := resultSet{Seed: s}
		for _, traced := range []bool{false, true} {
			for _, w := range workloadNames {
				r, err := runWorkload(e, w, traced)
				if err != nil {
					cleanup()
					return fmt.Errorf("%s: %w", w, err)
				}
				r.print(os.Stdout)
				if !r.correct() || r.Failed > 0 {
					failed++
				}
				if traced {
					set.Traced = append(set.Traced, r)
				} else {
					set.Untraced = append(set.Untraced, r)
				}
			}
		}
		cleanup()
		file.Sets = append(file.Sets, set)
	}
	if repeat > 1 {
		printSpread(&file, os.Stdout)
	}
	if out != "" {
		b, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", out)
	}
	if failed > 0 {
		return fmt.Errorf("%d run(s) failed a correctness check or an operation", failed)
	}
	return nil
}
