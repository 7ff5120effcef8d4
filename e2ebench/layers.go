package main

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// parsePs parses a /quality p list.
func parsePs(spec string) ([]float64, error) {
	var ps []float64
	for _, f := range strings.Split(spec, ",") {
		p, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("bad p %q: %w", f, err)
		}
		ps = append(ps, p)
	}
	return ps, nil
}

// p50 and p99 report a percentile under the support rule; an unsupported
// one (a layer that did no work, or too few calls) reads 0.
func p50(xs []float64) float64 { return supported(xs, 0.5) }
func p99(xs []float64) float64 { return supported(xs, 0.99) }

func supported(xs []float64, q float64) float64 {
	v, ok := percentile(append([]float64(nil), xs...), q)
	if !ok {
		return 0
	}
	return finite(v)
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// followOnly are the per-layer metrics of live ingestion, reported only
// by follow-live: the other workloads have no follower, tail or writer.
var followOnly = []string{
	"server.follow_ticks", "server.follow_events", "server.follow_lag_p50_ms", "server.follow_lag_p99_ms",
	"core.advance_ms_p50", "core.advance_ms_p99", "microscopic.extend_ms_p50",
	"microscopic.extend_late_over_early", "traceio.tail_batch_ms_p50", "bench.writer_late_ms_p99",
}

// perLayer runs the traced replay of a measured run and reports the
// per-layer metrics: counters from /debug/cachestats deltas and response
// headers of the measured phase, and span timings from the replay.
func perLayer(ctx context.Context, wl *workload, o runOptions, pr *phaseResult) (*result, error) {
	rr, err := replay(ctx, wl, o, pr, replayBudget(o))
	if err != nil {
		return nil, err
	}
	d := delta(pr.before, pr.after)
	attempted, succeeded, failed := counts(pr.samples)
	var derivedMs, scratchMs, postBuildMs []float64
	for _, s := range pr.samples {
		if s.failed {
			continue
		}
		b := float64(s.buildUs) / 1000
		switch s.build {
		case "derived":
			derivedMs = append(derivedMs, b)
		case "scratch":
			scratchMs = append(scratchMs, b)
		}
		postBuildMs = append(postBuildMs, ms(s.lat)-b)
	}
	extend := rr.t.durations("microscopic.extend")
	lateOverEarly := 0.0
	if n := len(extend) / 10; n > 0 {
		lateOverEarly = ratio(median(extend[len(extend)-n:]), median(extend[:n]))
	}
	tails := rr.t.durations("traceio.tail_read")
	solves := rr.t.durations("core.solve")
	m := map[string]metric{
		"server.hit_ratio":                   {ratio(float64(d.Hits), float64(d.Hits+d.Misses+d.Coalesced)), "ratio"},
		"server.derived_builds":              {float64(d.Derived), "count"},
		"server.scratch_builds":              {float64(d.Scratch), "count"},
		"server.coalesced":                   {float64(d.Coalesced), "count"},
		"server.evictions":                   {float64(d.Evictions), "count"},
		"server.shed":                        {float64(d.Shed), "count"},
		"server.degraded":                    {float64(d.Degraded), "count"},
		"server.build_derived_ms_p50":        {p50(derivedMs), "ms"},
		"server.build_scratch_ms_p50":        {p50(scratchMs), "ms"},
		"server.post_build_ms_p50":           {p50(postBuildMs), "ms"},
		"server.follow_ticks":                {float64(d.FollowTicks), "count"},
		"server.follow_events":               {float64(d.FollowEvents), "count"},
		"server.follow_lag_p50_ms":           {p50(pr.lags), "ms"},
		"server.follow_lag_p99_ms":           {p99(pr.lags), "ms"},
		"core.solve_ms_p50":                  {p50(solves), "ms"},
		"core.solve_busy_s":                  {sum(solves) / 1000, "s"},
		"core.sweep_ms_p50":                  {p50(rr.t.durations("core.sweep")), "ms"},
		"core.input_fill_ms_p50":             {p50(rr.t.durations("core.new_input")), "ms"},
		"core.input_derive_ms_p50":           {p50(rr.t.durations("core.update")), "ms"},
		"core.advance_ms_p50":                {p50(rr.t.durations("core.advance")), "ms"},
		"core.advance_ms_p99":                {p99(rr.t.durations("core.advance")), "ms"},
		"core.describe_ms_p50":               {p50(rr.t.durations("core.describe")), "ms"},
		"microscopic.build_at_ms_p50":        {p50(rr.t.durations("microscopic.build_at")), "ms"},
		"microscopic.shift_ms_p50":           {p50(rr.t.durations("microscopic.shift")), "ms"},
		"microscopic.extend_ms_p50":          {p50(extend), "ms"},
		"microscopic.extend_late_over_early": {lateOverEarly, "ratio"},
		"microscopic.index_load_s":           {rr.loadS, "s"},
		"microscopic.index_mb":               {rr.indexMB, "MiB"},
		"eventstore.chunks_read_per_req":     {ratio(float64(d.IndexChunksRead), float64(attempted)), "count"},
		"eventstore.chunk_hit_ratio":         {ratio(float64(d.IndexChunkHits), float64(d.IndexChunkHits+d.IndexChunksRead)), "ratio"},
		"eventstore.mb_read_per_req":         {ratio(float64(d.IndexBytesRead)/(1<<20), float64(attempted)), "MiB"},
		"eventstore.open_chunk_mb":           {float64(pr.after.IndexOpenChunkBytes) / (1 << 20), "MiB"},
		"traceio.read_s":                     {rr.readS, "s"},
		"traceio.events_per_s":               {ratio(float64(rr.readEvents), rr.readS), "1/s"},
		"traceio.tail_batch_ms_p50":          {p50(tails), "ms"},
		"bench.attempted":                    {float64(attempted), "count"},
		"bench.failed":                       {float64(failed), "count"},
		"bench.fail_ratio":                   {ratio(float64(failed), float64(attempted)), "ratio"},
		"bench.writer_late_ms_p99":           {p99(pr.late), "ms"},
		"bench.http_req_p50_ms":              {p50(latencies(pr.samples, nil)), "ms"},
		"bench.replay_req_p50_ms":            {p50(rr.replayMs), "ms"},
		"bench.overhead_ms_p50":              {p50(rr.overheadMs), "ms"},
		"bench.replayed":                     {float64(rr.replayed), "count"},
		"bench.replay_fallbacks":             {float64(rr.fallbacks), "count"},
	}
	if pr.in.writer == nil {
		for _, n := range followOnly {
			delete(m, n)
		}
	}
	report(wl, o, pr, m)
	fmt.Printf("replay: %d of %d requests and %d ticks in %d spans, %d builds not repeatable as reported; spans in %s\n",
		rr.replayed, rr.replayed+rr.unreplayed, rr.ticks, len(rr.t.spans), rr.fallbacks, rr.spanFile)
	layers := make([]string, 0, len(rr.layerSelfMs))
	for l := range rr.layerSelfMs {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Printf("self time %-12s %12.1f ms\n", l, rr.layerSelfMs[l])
	}
	return &result{Correct: len(pr.mismatches) == 0, Attempted: attempted, Failed: attempted - succeeded, Metrics: m}, nil
}
