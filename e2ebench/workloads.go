package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ocelotl/internal/grid5000"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/mpisim"
	"ocelotl/internal/server"
	"ocelotl/internal/trace"
	"ocelotl/internal/traceio"
)

// inputs is what a workload generated for one run: the trace file the
// server loads, its shape, and for follow-live the writer that keeps
// appending to it.
type inputs struct {
	path      string
	end       float64 // trace window is [0, end]
	events    int     // events in the file once complete
	resources int
	writer    *liveWriter
	// prefixEvents and prefixOffset locate the end of the part of a
	// follow-live trace written before the load.
	prefixEvents int
	prefixOffset int64
}

// workload is one traffic mix against one generated trace.
type workload struct {
	name    string
	id      string // trace id on the server
	clients int
	// index is the event-index backend the server is configured with.
	index microscopic.IndexMode
	// cacheBytes is the server's Input-cache budget (0: the default).
	cacheBytes int64
	generate   func(dir string, seed int64, seconds int) (*inputs, error)
	loadBody   func(in *inputs) map[string]any
	warmups    func(in *inputs) []request
	// cooldown requests run after the measured phase, before heap_mb is
	// read: a fixed sequence that refills the whole cache with the same
	// windows on every run, so the retained heap does not depend on which
	// windows the run happened to leave cached.
	cooldown    func(in *inputs) []request
	gens        func(in *inputs, srv *inproc, seed int64) []generator
	think       time.Duration // client pause between requests
	verifyPicks int           // sampled requests replayed against a scratch server
}

func (wl *workload) config(dir string) server.Config {
	return server.Config{
		CacheBytes: wl.cacheBytes,
		Index:      microscopic.IndexOptions{Mode: wl.index, Dir: dir},
	}
}

// Workload shapes. They are fixed here so that every run of a workload,
// on any commit, sends the same kind of traffic; only --seed varies the
// trace and the request sequence.
const (
	navScale     = 0.01      // case C at 1% of Table II: about 1.7M events
	scanEvents   = 6_300_000 // case A layout: about 5.0M events
	followEvents = 320_000   // case A layout: about 250K events
	followPrefix = 0.1       // share of the follow trace written before the load
	followPeriod = 10 * time.Millisecond
	followPollMs = 20
	// The live grid's slice is end/followLiveSlice: fine enough that the
	// live window moves on most ticks (over a thousand advances a run).
	followLiveSlice = 1500
	// followCacheBytes budgets the follow-live server's Input cache. Every
	// cached live window pins the index snapshot it was built over, which
	// the budget does not count, so the default budget would hold ~190
	// snapshots of the growing index; 64 MiB keeps the ~24 windows the
	// client revisits.
	followCacheBytes = 64 << 20
	followLiveN      = 30
	// followThink is the follow-live client's pause between requests: a
	// dashboard polling the live view, not a client saturating both cores
	// and starving the writer it is supposed to watch.
	followThink = 10 * time.Millisecond
)

// scanFracs and scanSlices are the cold-scan window shapes: lengths as a
// share of the trace, small enough that a run makes the thousand requests
// a p99 needs, and |T| values. Both counts are odd, so a median falls
// inside one shape's cost instead of in the gap between two.
var (
	scanFracs  = []float64{0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07}
	scanSlices = []int{20, 25, 30, 35, 40}
)

// navSlices are the |T| values of navigate sessions.
var navSlices = []int{20, 22, 24, 26, 28, 30}

// navCacheBytes budgets the navigate server's Input cache: with 700
// resources an Input costs 10–25 MB, so 384 MiB keeps a session's recent
// windows and its zoom ladder.
const navCacheBytes = 384 << 20

// navCooldownPans is how many 1-slice pans the navigate cool-down makes:
// more Inputs than the 384 MiB cache holds at the smallest |T|.
const navCooldownPans = 64

// workloads are the benchmark's traffic mixes, by name.
var workloads = map[string]*workload{
	"navigate": {
		name:       "navigate",
		id:         "nav",
		clients:    1,
		index:      microscopic.IndexRAM,
		cacheBytes: navCacheBytes,
		generate: func(dir string, seed int64, _ int) (*inputs, error) {
			return generateCase(filepath.Join(dir, "navigate.bin"), grid5000.CaseC, mpisim.Config{Seed: seed, Scale: navScale})
		},
		loadBody: func(in *inputs) map[string]any { return map[string]any{"id": "nav", "path": in.path} },
		warmups: func(in *inputs) []request {
			return []request{{Endpoint: "aggregate", Lo: 0, Hi: in.end, Slices: 30, P: 0.35}}
		},
		cooldown: func(in *inputs) []request {
			// One window on each of server.DefaultLadderLevels new grid
			// levels takes every pin from the run's windows, and the pans
			// on the last level then push them all out of the cache.
			var rs []request
			for l := 0; l < server.DefaultLadderLevels; l++ {
				rs = append(rs, request{Endpoint: "aggregate", Lo: 0, Hi: in.end / float64(int(1)<<l), Slices: navSlices[0], P: 0.35})
			}
			last := rs[len(rs)-1]
			for pan := 1; pan <= navCooldownPans; pan++ {
				last.Pan = pan
				rs = append(rs, last)
			}
			return rs
		},
		gens: func(in *inputs, _ *inproc, seed int64) []generator {
			np := navParams{
				end: in.end, slices: navSlices, levels: 4,
				sessionSteps: 20, sweepStep: 10, revisitHistory: 6,
				mixRevisit: 30, mixSlider: 25, mixPan: 30, mixZoom: 15,
				sweepPs: sweepPs16, pMin: 0.05, pMax: 0.95, pInc: 0.05,
			}
			return []generator{newNavGen(np, seed*1000+1)}
		},
		verifyPicks: 12,
	},
	"cold-scan": {
		name:    "cold-scan",
		id:      "scan",
		clients: 2,
		index:   microscopic.IndexDisk,
		generate: func(dir string, seed int64, _ int) (*inputs, error) {
			return generateCase(filepath.Join(dir, "cold-scan.bin"), grid5000.CaseA, mpisim.Config{Seed: seed, EventTarget: scanEvents})
		},
		loadBody: func(in *inputs) map[string]any { return map[string]any{"id": "scan", "path": in.path} },
		warmups: func(in *inputs) []request {
			return []request{{Endpoint: "aggregate", Lo: 0, Hi: in.end / 10, Slices: 30, P: 0.35}}
		},
		gens: func(in *inputs, _ *inproc, seed int64) []generator {
			sp := scanParams{end: in.end, fracs: scanFracs, slices: scanSlices,
				sweepEvery: 8, panEvery: 20, pMin: 0.05, pMax: 0.95, pInc: 0.05}
			return []generator{newScanGen(sp, seed*1000+1), newScanGen(sp, seed*1000+2)}
		},
		verifyPicks: 24,
	},
	"follow-live": {
		name:       "follow-live",
		id:         "live",
		clients:    1,
		index:      microscopic.IndexAuto,
		cacheBytes: followCacheBytes,
		think:      followThink,
		generate: func(dir string, seed int64, seconds int) (*inputs, error) {
			return generateLive(filepath.Join(dir, "follow-live.bin"), grid5000.CaseA,
				mpisim.Config{Seed: seed, EventTarget: followEvents}, followPrefix, followPeriod, seconds)
		},
		loadBody: func(in *inputs) map[string]any {
			return map[string]any{"id": "live", "path": in.path, "follow": true, "poll_ms": followPollMs,
				"live_slices": followLiveN, "slice_width": in.end / followLiveSlice}
		},
		warmups: func(*inputs) []request {
			return []request{{Endpoint: "aggregate", Live: true, P: 0.35}}
		},
		gens: func(_ *inputs, srv *inproc, seed int64) []generator {
			reg := srv.srv.Registry()
			return []generator{newLiveGen(func() (server.FollowInfo, bool) { return followInfo(reg, "live") }, seed*1000+1)}
		},
		verifyPicks: 24,
	},
}

// generateCase simulates a Table II case into a binary trace file.
func generateCase(path string, c grid5000.Case, cfg mpisim.Config) (*inputs, error) {
	sc, err := grid5000.Scenarios(c)
	if err != nil {
		return nil, err
	}
	res := sc.Platform.ResourcePaths(sc.Processes)
	w, err := traceio.CreateFile(path, traceio.Header{Resources: res, States: mpisim.StateNames, Start: 0, End: sc.PaperRuntime})
	if err != nil {
		return nil, err
	}
	n := 0
	if _, err := mpisim.GenerateStream(sc, cfg, func(ev trace.Event) error {
		n++
		return w.WriteEvent(ev)
	}); err != nil {
		w.Close()
		return nil, fmt.Errorf("generating case %s: %w", c, err)
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return &inputs{path: path, end: sc.PaperRuntime, events: n, resources: len(res)}, nil
}

// generateLive simulates case c, sorts it by start time (a live writer
// appends in time order), writes the header and the first prefix share
// of the events, and returns a writer holding the rest.
func generateLive(path string, c grid5000.Case, cfg mpisim.Config, prefix float64, period time.Duration, seconds int) (*inputs, error) {
	sc, err := grid5000.Scenarios(c)
	if err != nil {
		return nil, err
	}
	var evs []trace.Event
	if _, err := mpisim.GenerateStream(sc, cfg, func(ev trace.Event) error {
		evs = append(evs, ev)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("generating case %s: %w", c, err)
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Start < evs[j].Start })

	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	cw := &countingWriter{w: f}
	res := sc.Platform.ResourcePaths(sc.Processes)
	w, err := traceio.NewWriter(cw, traceio.FormatBinary, traceio.Header{Resources: res, States: mpisim.StateNames, Start: 0, End: sc.PaperRuntime})
	if err != nil {
		f.Close()
		return nil, err
	}
	closeFn := func() error {
		err := w.Close()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}
	head := int(float64(len(evs)) * prefix)
	for _, ev := range evs[:head] {
		if err := w.WriteEvent(ev); err != nil {
			closeFn()
			return nil, err
		}
	}
	if err := traceio.Flush(w); err != nil {
		closeFn()
		return nil, err
	}
	rest := evs[head:]
	nb := int(time.Duration(seconds) * time.Second / period)
	lw := &liveWriter{
		w: w, cw: cw, closeFn: closeFn, events: rest,
		batch:  (len(rest) + nb - 1) / nb,
		period: period,
	}
	lw.recs = make([]flushRecord, lw.batches())
	return &inputs{path: path, end: sc.PaperRuntime, events: len(evs), resources: len(res), writer: lw,
		prefixEvents: head, prefixOffset: cw.n}, nil
}
