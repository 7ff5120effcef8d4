// Command e2ebench is the end-to-end benchmark of ocelotld. It runs one
// workload against an ocelotld server started inside its own process
// (server.New behind Handler on a 127.0.0.1:0 listener), loads the
// generated trace through POST /traces, drives the HTTP API with closed-
// loop clients, checks the answers against a cache-disabled scratch
// server, and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// also replays its recorded requests through each layer's public
// functions with spans around every call, and reports the per-layer
// metrics instead. Run it from the repository root through run.sh:
//
//	bash e2ebench/run.sh --workload navigate --seed 1 --seconds 25 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"ocelotl/internal/testutil"
)

// goroutineSettle bounds how long the exit check waits for the run's
// goroutines to finish.
const goroutineSettle = 5 * time.Second

func main() {
	os.Exit(run())
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run() int {
	var (
		root     = flag.String("root", ".", "repository checkout the run reads and writes in")
		name     = flag.String("workload", "", "workload: navigate, cold-scan or follow-live")
		seed     = flag.Int64("seed", 1, "seed for the generated trace and request sequence")
		seconds  = flag.Int("seconds", 20, "length of the measured phase")
		traceRun = flag.Int("trace", 0, "1: replay the run through each layer with spans and report per-layer metrics")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q (want one of %v)\n", *name, names)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be at least 1")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	baseline := runtime.NumGoroutine()

	work := filepath.Join(*root, ".bench_build")
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(work, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	opts := runOptions{seed: *seed, seconds: *seconds, traced: *traceRun == 1, tmp: tmp, out: work}
	res, err := runWorkload(ctx, wl, opts)
	if rerr := os.RemoveAll(tmp); rerr != nil && err == nil {
		err = fmt.Errorf("removing %s: %w", tmp, rerr)
	}
	if extra, ok := testutil.SettlesTo(baseline, goroutineSettle); !ok && err == nil {
		err = fmt.Errorf("%d goroutines still running after the run:\n%s", extra, testutil.GoroutineDump())
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "e2ebench: interrupted")
			return 130
		}
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
