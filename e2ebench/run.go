package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"time"

	"ocelotl/internal/server"
)

// setupReps is how many times a run sets the server up; setup_s is their
// median, so one slow start does not move it.
const setupReps = 3

// runOptions are one invocation's settings.
type runOptions struct {
	seed    int64
	seconds int
	traced  bool
	tmp     string // removed by the caller when the run ends
	out     string // where the span file of a traced run is written
}

// phaseResult is everything the measured phase of a run recorded.
type phaseResult struct {
	in            *inputs
	setups        []float64 // seconds
	samples       []sample
	elapsed       time.Duration
	before, after server.StatsSnapshot
	retained      server.StatsSnapshot // when heap_mb is read
	heapMB        float64
	lags          []float64 // follow-live: ms per batch
	late          []float64 // follow-live: writer lateness, ms per batch
	follow        server.FollowInfo
	checked       int
	mismatches    []string
}

// runWorkload runs one workload end to end: generate the inputs, set the
// server up, measure, check every answer that can be checked, shut down.
// In a traced run it then replays the recorded requests through the
// layers. It returns once every goroutine it started has exited.
func runWorkload(ctx context.Context, wl *workload, o runOptions) (*result, error) {
	hc, transport := newHTTPClient(clientTimeout)
	defer transport.CloseIdleConnections()

	pr, err := measure(ctx, hc, wl, o)
	if err != nil {
		return nil, err
	}
	if !o.traced {
		return endToEnd(wl, o, pr)
	}
	return perLayer(ctx, wl, o, pr)
}

// measure runs the set-up and measured phases and the output checks.
func measure(ctx context.Context, hc *http.Client, wl *workload, o runOptions) (*phaseResult, error) {
	in, err := wl.generate(o.tmp, o.seed, o.seconds)
	if err != nil {
		return nil, err
	}
	if in.writer != nil {
		defer in.writer.abandon()
	}
	pr := &phaseResult{in: in}

	var srv *inproc
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		p, err := setUp(ctx, hc, wl, in, o.tmp)
		if err != nil {
			return nil, err
		}
		pr.setups = append(pr.setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			if err := p.close(); err != nil {
				return nil, err
			}
			continue
		}
		srv = p
	}
	srvClosed := false
	defer func() {
		if !srvClosed {
			srv.close()
		}
	}()

	if pr.before, err = srv.cacheStats(ctx, hc); err != nil {
		return nil, err
	}
	pc := phaseConfig{
		base:       srv.base,
		traceID:    wl.id,
		gens:       wl.gens(in, srv, o.seed),
		seconds:    time.Duration(o.seconds) * time.Second,
		minSamples: minSamples,
		think:      wl.think,
	}
	if in.writer != nil {
		if err := measureFollow(ctx, hc, wl, srv, pc, pr); err != nil {
			return nil, err
		}
	} else {
		t0 := time.Now()
		pr.samples = runPhase(ctx, hc, pc)
		pr.elapsed = time.Since(t0)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if pr.after, err = srv.cacheStats(ctx, hc); err != nil {
		return nil, err
	}
	if wl.cooldown != nil {
		var buf bytes.Buffer
		for _, r := range wl.cooldown(in) {
			s := sample{req: r}
			if do(ctx, hc, srv.base, wl.id, &s, &buf); s.failed {
				return nil, fmt.Errorf("cool-down %s: %s", r.path(wl.id), s.why)
			}
		}
	}
	if pr.retained, err = srv.cacheStats(ctx, hc); err != nil {
		return nil, err
	}
	pr.heapMB = liveHeapMB()

	pr.mismatches = revisitMismatches(pr.samples, wl.id)
	picks := pickSamples(pr.samples, o.seed, wl.verifyPicks)
	toExplicit := func(s sample) (request, error) { return s.req, nil }
	if in.writer != nil {
		// The final live window, after the follower converged, must match
		// a batch load of the finished file like any sampled request.
		final := sample{req: request{Endpoint: "aggregate", Live: true, P: 0.35}}
		var buf bytes.Buffer
		do(ctx, hc, srv.base, wl.id, &final, &buf)
		if final.failed {
			return nil, fmt.Errorf("final live window: %s", final.why)
		}
		picks = append(picks, final)
		fi := pr.follow
		toExplicit = func(s sample) (request, error) {
			if !s.req.Live {
				return s.req, nil
			}
			return explicitLive(s, fi)
		}
	}
	srvClosed = true
	if err := srv.close(); err != nil {
		return nil, err
	}
	checked, bad, err := verifyAgainstScratch(ctx, hc, wl, in, o.tmp, picks, toExplicit)
	if err != nil {
		return nil, err
	}
	pr.checked = checked
	pr.mismatches = append(pr.mismatches, bad...)
	return pr, nil
}

// measureFollow is the measured phase of follow-live: the client, the
// live writer and the lag observer run together; then the run waits for
// the follower to read the last batch.
func measureFollow(ctx context.Context, hc *http.Client, wl *workload, srv *inproc, pc phaseConfig, pr *phaseResult) error {
	lw, reg := pr.in.writer, srv.srv.Registry()
	pc.before = func(_ int, s *sample) {
		if fi, ok := followInfo(reg, wl.id); ok {
			s.offset = fi.Offset
		}
	}
	var werr error
	var obs lagObserver
	octx, cancel := context.WithTimeout(ctx, 3*pc.seconds+convergeTimeout)
	defer cancel()
	t0 := time.Now()
	joinAll(
		func() {
			if werr = lw.run(ctx, t0); werr != nil {
				cancel() // the observer would wait for batches that never come
			}
		},
		func() { obs.observe(octx, reg, wl.id, lw, lagPoll) },
		func() { pr.samples = runPhase(ctx, hc, pc) },
	)
	pr.elapsed = time.Since(t0)
	if werr != nil {
		return werr
	}
	if err := waitConverged(ctx, reg, wl.id, lw.finalOffset(), convergeTimeout); err != nil {
		return err
	}
	pr.lags, pr.late = obs.lags, lw.lateness()
	pr.follow, _ = followInfo(reg, wl.id)
	// A writer that fell behind its schedule by more than a poll interval
	// makes follow lag a measure of the generator, not of the server: the
	// run is invalid.
	if late, ok := percentile(append([]float64(nil), pr.late...), 0.99); !ok || late > followPollMs {
		return fmt.Errorf("run invalid: live writer late by %s at p99, poll interval %d ms", pctString(pr.late, 0.99), followPollMs)
	}
	return nil
}

const (
	// minSamples makes p99 reportable: 10 samples beyond it.
	minSamples = 100 * minBeyond
	// convergeTimeout bounds the wait for the follower to read the last
	// batch after the writer finished.
	convergeTimeout = 20 * time.Second
	// lagPoll is how often the lag observer reads the published offset.
	lagPoll = 2 * time.Millisecond
)

// setUp starts a server, loads the workload's trace through POST /traces
// and sends the warm-up requests.
func setUp(ctx context.Context, hc *http.Client, wl *workload, in *inputs, tmp string) (*inproc, error) {
	p, err := startServer(wl.config(tmp))
	if err != nil {
		return nil, err
	}
	if err := p.loadTrace(ctx, hc, wl.loadBody(in)); err != nil {
		p.close()
		return nil, err
	}
	var buf bytes.Buffer
	for _, r := range wl.warmups(in) {
		s := sample{req: r}
		do(ctx, hc, p.base, wl.id, &s, &buf)
		if s.failed {
			p.close()
			return nil, fmt.Errorf("warm-up %s: %s", r.path(wl.id), s.why)
		}
	}
	return p, nil
}

// liveHeapMB is the live Go heap after a full collection, in MiB. It
// collects twice: objects parked in sync.Pool survive one collection.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// latencies returns the latency of each sample in ms, +Inf for failures:
// a failed request misses every latency percentile.
func latencies(samples []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if keep != nil && !keep(s) {
			continue
		}
		if s.failed {
			out = append(out, math.Inf(1))
			continue
		}
		out = append(out, ms(s.lat))
	}
	return out
}

// finite reports an infinite percentile (more failures than samples
// beyond it) as the client timeout, the latency a failure stands for.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return ms(clientTimeout)
	}
	return v
}

// counts returns attempted, succeeded and failed requests.
func counts(samples []sample) (attempted, succeeded, failed int) {
	for _, s := range samples {
		if s.failed {
			failed++
		}
	}
	return len(samples), len(samples) - failed, failed
}

// endToEnd reports the user-visible metrics of an untraced run.
func endToEnd(wl *workload, o runOptions, pr *phaseResult) (*result, error) {
	all := latencies(pr.samples, nil)
	p50, _ := percentile(all, 0.5)
	p99, ok := percentile(all, 0.99)
	if !ok {
		return nil, fmt.Errorf("%d requests in %v: too few for a p99 with %d samples beyond it", len(all), pr.elapsed, minBeyond)
	}
	sweeps := latencies(pr.samples, func(s sample) bool { return s.req.Endpoint == "quality" })
	sweep50, ok := percentile(sweeps, 0.5)
	if !ok {
		return nil, fmt.Errorf("%d /quality sweeps: too few for a median", len(sweeps))
	}
	attempted, succeeded, failed := counts(pr.samples)
	res := &result{
		Correct:   len(pr.mismatches) == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":      {median(pr.setups), "s"},
			"req_p50_ms":   {finite(p50), "ms"},
			"req_p99_ms":   {finite(p99), "ms"},
			"req_per_s":    {float64(succeeded) / pr.elapsed.Seconds(), "1/s"},
			"sweep_p50_ms": {finite(sweep50), "ms"},
			"heap_mb":      {pr.heapMB, "MiB"},
		},
	}
	report(wl, o, pr, res.Metrics)
	return res, nil
}

// report prints the run's shape, its counts and every metric, one per
// line, before the JSON result line.
func report(wl *workload, o runOptions, pr *phaseResult, metrics map[string]metric) {
	attempted, succeeded, failed := counts(pr.samples)
	fmt.Printf("workload %s seed %d: %d events, %d resources, %d clients, measured %.1fs\n",
		wl.name, o.seed, pr.in.events, pr.in.resources, wl.clients, pr.elapsed.Seconds())
	fmt.Printf("requests: attempted %d, succeeded %d, failed %d, fail_ratio %.4f\n",
		attempted, succeeded, failed, float64(failed)/float64(max(attempted, 1)))
	for _, s := range pr.samples {
		if s.failed {
			fmt.Printf("  failed: %s: %s\n", s.req.path(wl.id), s.why)
			break
		}
	}
	d := delta(pr.before, pr.after)
	fmt.Printf("cache: hits %d, derived %d, scratch %d, coalesced %d, evictions %d, shed %d, degraded %d; %d entries, %.0f MiB\n",
		d.Hits, d.Derived, d.Scratch, d.Coalesced, d.Evictions, d.Shed, d.Degraded, pr.after.Entries, float64(pr.after.Bytes)/(1<<20))
	fmt.Printf("retained at heap_mb: cache %d entries, %.0f MiB; index %.0f MiB, open chunks %.0f MiB\n",
		pr.retained.Entries, float64(pr.retained.Bytes)/(1<<20), float64(pr.retained.IndexBytes)/(1<<20), float64(pr.retained.IndexOpenChunkBytes)/(1<<20))
	fmt.Printf("checked %d sampled answers against a scratch server: %d mismatches\n", pr.checked, len(pr.mismatches))
	for _, m := range pr.mismatches {
		fmt.Println("  mismatch:", m)
	}
	if pr.in.writer != nil {
		fmt.Printf("follow: %d batches, lag p50 %.3f ms p99 %s, writer late p99 %s (poll %d ms), ticks %d\n",
			len(pr.lags), median(pr.lags), pctString(pr.lags, 0.99), pctString(pr.late, 0.99), followPollMs,
			pr.after.FollowTicks-pr.before.FollowTicks)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %14.4f %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
}

// delta is the change of the server's monotonic counters over the
// measured phase.
func delta(before, after server.StatsSnapshot) server.StatsSnapshot {
	return server.StatsSnapshot{
		Hits:            after.Hits - before.Hits,
		Misses:          after.Misses - before.Misses,
		Coalesced:       after.Coalesced - before.Coalesced,
		Derived:         after.Derived - before.Derived,
		Scratch:         after.Scratch - before.Scratch,
		Evictions:       after.Evictions - before.Evictions,
		Shed:            after.Shed - before.Shed,
		Degraded:        after.Degraded - before.Degraded,
		FollowTicks:     after.FollowTicks - before.FollowTicks,
		FollowEvents:    after.FollowEvents - before.FollowEvents,
		IndexChunksRead: after.IndexChunksRead - before.IndexChunksRead,
		IndexChunkHits:  after.IndexChunkHits - before.IndexChunkHits,
		IndexBytesRead:  after.IndexBytesRead - before.IndexBytesRead,
	}
}

// pctString formats a percentile, or says why it is not reported.
func pctString(xs []float64, q float64) string {
	v, ok := percentile(append([]float64(nil), xs...), q)
	if !ok {
		return fmt.Sprintf("n/a (%d samples)", len(xs))
	}
	return fmt.Sprintf("%.3f ms", v)
}
