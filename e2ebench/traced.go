package main

import (
	"container/list"
	"context"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"
	"time"

	"ocelotl/internal/core"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/partition"
	"ocelotl/internal/server"
	"ocelotl/internal/timeslice"
	"ocelotl/internal/trace"
	"ocelotl/internal/traceio"
)

// The traced run. The HTTP handler hides the calls a request makes, so
// after the measured phase the run replays its recorded requests, in send
// order, through the public functions of each layer, with a span around
// every call. Each request repeats the work its X-Ocelotl-Build header
// reported in the measured phase:
//
//	scratch:         microscopic.BuildAt + core.NewInputContext
//	derived:         microscopic.Shift + core.UpdateContext
//	hit, coalesced:  nothing
//
// and then the solve (aggregate) or the sweep (quality), and Describe of
// every area. Follow-live ticks replay the writer's batches as a tail
// read, Reslicer.Extend and Input.AdvanceContext. Nothing inside the
// program is instrumented.

// replayCache is the replay's stand-in for the server's Input cache: it
// keeps built Inputs by window, evicting least recently used past the
// server's byte budget, so a request reported as a hit or a derivation
// finds the Input it was served from.
type replayCache struct {
	budget int64
	bytes  int64
	lru    *list.List // of *replayEntry, most recent first
	byKey  map[windowKeyOf]*list.Element
}

type windowKeyOf struct {
	n          int
	start, end float64
}

type replayEntry struct {
	key   windowKeyOf
	in    *core.Input
	bytes int64 // charged at insertion; solvers pooled later do not count
}

func keyOf(sl timeslice.Slicer) windowKeyOf { return windowKeyOf{sl.N, sl.Start, sl.End} }

func newReplayCache(budget int64) *replayCache {
	if budget == 0 {
		budget = server.DefaultCacheBytes
	}
	return &replayCache{budget: budget, lru: list.New(), byKey: map[windowKeyOf]*list.Element{}}
}

func (c *replayCache) get(sl timeslice.Slicer) *core.Input {
	el, ok := c.byKey[keyOf(sl)]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	return el.Value.(*replayEntry).in
}

func (c *replayCache) put(in *core.Input) {
	k := keyOf(in.Model.Slicer)
	if el, ok := c.byKey[k]; ok {
		c.lru.MoveToFront(el)
		return
	}
	e := &replayEntry{key: k, in: in, bytes: int64(in.MemoryBytes())}
	c.byKey[k] = c.lru.PushFront(e)
	c.bytes += e.bytes
	for c.bytes > c.budget && c.lru.Len() > 1 {
		el := c.lru.Back()
		e := el.Value.(*replayEntry)
		c.lru.Remove(el)
		delete(c.byKey, e.key)
		c.bytes -= e.bytes
	}
}

// nearest returns the cached Input on target's grid sharing the most
// slices with it, and target as that Input's grid sees it — the server's
// derivation rule (exact grid relation, or a shift reproducing target's
// boundary floats bit-exactly).
func (c *replayCache) nearest(target timeslice.Slicer) (*core.Input, timeslice.Slicer) {
	var best *core.Input
	bestW, bestSl := 0, target
	for el := c.lru.Front(); el != nil; el = el.Next() {
		in := el.Value.(*replayEntry).in
		cand := in.Model.Slicer
		if cand.N != target.N {
			continue
		}
		sl := target
		ov := microscopic.GridOverlap(cand, sl)
		if !ov.Shared() {
			w := cand.Width()
			if w <= 0 {
				continue
			}
			shifted := cand.Shift(int(math.Round((target.Start - cand.Start) / w)))
			if shifted.Start != target.Start || shifted.End != target.End {
				continue
			}
			sl = shifted
			ov = microscopic.GridOverlap(cand, sl)
		}
		if ov.W > bestW {
			best, bestW, bestSl = in, ov.W, sl
		}
	}
	return best, bestSl
}

// replayer holds the state of one replay.
type replayer struct {
	ctx       context.Context
	t         *tracer
	resl      *microscopic.Reslicer
	cache     *replayCache
	opts      core.Options
	fallbacks int // requests whose reported build could not be repeated

	// follow-live
	tail    *traceio.TailReader
	anchor  timeslice.Slicer
	pan     int
	horizon float64
	live    *core.Input
}

// call runs f inside a span.
func (r *replayer) call(name string, parent, req int, f func() error) error {
	id := r.t.begin(name, parent, req)
	err := f()
	r.t.end(id)
	return err
}

// build repeats the build a request reported and returns its Input.
func (r *replayer) build(sl timeslice.Slicer, kind string, parent, req int) (*core.Input, error) {
	switch kind {
	case string(server.BuildHit), string(server.BuildCoalesced):
		if in := r.cache.get(sl); in != nil {
			return in, nil
		}
		if r.live != nil && keyOf(r.live.Model.Slicer) == keyOf(sl) {
			return r.live, nil
		}
		r.fallbacks++
	case string(server.BuildDerived):
		if src, aligned := r.cache.nearest(sl); src != nil {
			ov := microscopic.GridOverlap(src.Model.Slicer, aligned)
			var m *microscopic.Model
			var shiftOv microscopic.SliceOverlap
			if err := r.call("microscopic.shift", parent, req, func() (err error) {
				m, shiftOv, err = r.resl.Shift(src.Model, ov.Shift())
				return err
			}); err != nil {
				return nil, err
			}
			var in *core.Input
			if err := r.call("core.update", parent, req, func() (err error) {
				in, err = src.UpdateContext(r.ctx, m, shiftOv)
				return err
			}); err != nil {
				return nil, err
			}
			r.cache.put(in)
			return in, nil
		}
		r.fallbacks++
	case string(server.BuildScratch):
	default:
		r.fallbacks++
	}
	var m *microscopic.Model
	if err := r.call("microscopic.build_at", parent, req, func() (err error) {
		m, err = r.resl.BuildAt(sl)
		return err
	}); err != nil {
		return nil, err
	}
	var in *core.Input
	if err := r.call("core.new_input", parent, req, func() (err error) {
		in, err = core.NewInputContext(r.ctx, m, r.opts)
		return err
	}); err != nil {
		return nil, err
	}
	r.cache.put(in)
	return in, nil
}

// request replays one measured request under a root span and returns its
// duration.
func (r *replayer) request(s sample, sl timeslice.Slicer, req int) (time.Duration, error) {
	root := r.t.begin("bench.request", 0, req)
	defer r.t.end(root)
	t0 := time.Now()
	in, err := r.build(sl, s.build, root, req)
	if err != nil {
		return 0, err
	}
	if s.req.Endpoint == "quality" {
		ps, err := parsePs(s.req.Ps)
		if err != nil {
			return 0, err
		}
		if err := r.call("core.sweep", root, req, func() error {
			_, err := in.SweepQualityContext(r.ctx, ps)
			return err
		}); err != nil {
			return 0, err
		}
		return time.Since(t0), nil
	}
	var pt *partition.Partition
	if err := r.call("core.solve", root, req, func() error {
		solver, err := in.AcquireSolverContext(r.ctx)
		if err != nil {
			return err
		}
		defer in.ReleaseSolver(solver)
		pt, err = solver.RunContext(r.ctx, s.req.P)
		return err
	}); err != nil {
		return 0, err
	}
	r.call("core.describe", root, req, func() error {
		for _, ar := range pt.Areas {
			in.Describe(ar)
		}
		return nil
	})
	return time.Since(t0), nil
}

// tick replays one written batch the way the follower ingests it.
func (r *replayer) tick(n int, req int) error {
	root := r.t.begin("bench.tick", 0, req)
	defer r.t.end(root)
	batch := make([]trace.Event, 0, n)
	if err := r.call("traceio.tail_read", root, req, func() error {
		var ev trace.Event
		for len(batch) < n {
			if err := r.tail.Next(&ev); err != nil {
				if traceio.IsIncomplete(err) {
					return nil
				}
				return err
			}
			batch = append(batch, ev)
		}
		return nil
	}); err != nil {
		return err
	}
	if len(batch) == 0 {
		return nil
	}
	horizon := r.horizon
	for _, ev := range batch {
		horizon = math.Max(horizon, ev.Start)
	}
	var nr *microscopic.Reslicer
	if err := r.call("microscopic.extend", root, req, func() (err error) {
		nr, err = r.resl.Extend(batch, horizon)
		return err
	}); err != nil {
		return err
	}
	r.resl, r.horizon = nr, horizon
	pan := sealedPan(r.anchor, horizon)
	if k := pan - r.pan; k > 0 {
		if err := r.call("core.advance", root, req, func() (err error) {
			r.live, err = r.live.AdvanceContext(r.ctx, r.resl, k)
			return err
		}); err != nil {
			return err
		}
		r.cache.put(r.live)
	}
	r.pan = pan
	return nil
}

// sealedPan is the follower's rule for the live window: the pan of the
// anchor grid whose window ends at the last slice boundary at or below
// the horizon.
func sealedPan(anchor timeslice.Slicer, horizon float64) int {
	e := max(int(math.Floor((horizon-anchor.Start)/anchor.Width())), 0)
	pan := e - anchor.N
	for pan > -anchor.N && anchor.Shift(pan).End > horizon {
		pan--
	}
	for anchor.Shift(pan+1).End <= horizon {
		pan++
	}
	return pan
}

// replayBudget bounds the replay's wall time: as long as the measured
// phase, so a traced run costs about twice an untraced one.
func replayBudget(o runOptions) time.Duration { return time.Duration(o.seconds) * time.Second }

// replayResult is what the replay measured besides its spans.
type replayResult struct {
	t           *tracer
	readS       float64 // traceio: open + decode every event of the input
	readEvents  int
	loadS       float64 // microscopic: index build
	indexMB     float64
	replayed    int
	replayMs    []float64 // per replayed request
	overheadMs  []float64 // measured latency minus replayed duration
	fallbacks   int
	ticks       int
	unreplayed  int
	spanFile    string
	layerSelfMs map[string]float64
}

// replay runs the traced replay of a measured run, for at most budget of
// wall time (the requests are replayed in send order, so a cut leaves a
// consistent prefix).
func replay(ctx context.Context, wl *workload, o runOptions, pr *phaseResult, budget time.Duration) (*replayResult, error) {
	rr := &replayResult{t: newTracer()}
	in := pr.in

	// traceio: one full decode of the input file.
	t0 := time.Now()
	id := rr.t.begin("traceio.read", 0, 0)
	src, err := traceio.OpenFile(in.path)
	if err != nil {
		return nil, err
	}
	for _, err := range traceio.Events(src) {
		if err != nil {
			src.Close()
			return nil, err
		}
		rr.readEvents++
	}
	src.Close()
	rr.t.end(id)
	rr.readS = time.Since(t0).Seconds()

	rp := &replayer{ctx: ctx, t: rr.t, cache: newReplayCache(wl.cacheBytes)}
	defer func() {
		if rp.tail != nil {
			rp.tail.Close()
		}
		if rp.resl != nil {
			rp.resl.Close()
		}
	}()

	// microscopic: the index build the server's load does.
	indexOpts := microscopic.IndexOptions{Mode: wl.index, Dir: o.tmp}
	t0 = time.Now()
	id = rr.t.begin("microscopic.index_load", 0, 0)
	if in.writer == nil {
		src, err := traceio.OpenFile(in.path)
		if err != nil {
			return nil, err
		}
		rp.resl, err = microscopic.NewReslicerIndexed(src, indexOpts)
		src.Close()
		if err != nil {
			return nil, err
		}
	} else if err := rp.startFollow(in, indexOpts); err != nil {
		return nil, err
	}
	rr.t.end(id)
	rr.loadS = time.Since(t0).Seconds()
	rr.indexMB = float64(rp.resl.IndexMemoryBytes()) / (1 << 20)

	// Requests in send order; follow ticks interleaved by the offset each
	// request saw published.
	samples := append([]sample(nil), pr.samples...)
	sort.Slice(samples, func(i, j int) bool { return samples[i].at < samples[j].at })
	deadline := time.Now().Add(budget)
	batch, written := 0, 0
	if in.writer != nil {
		batch, written = in.writer.batch, len(in.writer.recs)
	}
	for i, s := range samples {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if time.Now().After(deadline) {
			rr.unreplayed = len(samples) - i
			break
		}
		for rr.ticks < written && in.writer.recs[rr.ticks].offset <= s.offset {
			if err := rp.tick(batch, -(rr.ticks + 1)); err != nil {
				return nil, err
			}
			rr.ticks++
		}
		if s.failed {
			continue
		}
		sl, err := s.req.window()
		if s.req.Live {
			var r request
			if r, err = explicitLive(s, pr.follow); err == nil {
				sl, err = r.window()
			}
		}
		if err != nil {
			return nil, err
		}
		d, err := rp.request(s, sl, i+1)
		if err != nil {
			return nil, fmt.Errorf("replaying %s: %w", s.req.path(wl.id), err)
		}
		rr.replayed++
		rr.replayMs = append(rr.replayMs, ms(d))
		rr.overheadMs = append(rr.overheadMs, ms(s.lat)-ms(d))
	}
	// The remaining batches, so every follow-live run replays the same
	// ingestion whatever the request budget cut.
	for ; rr.ticks < written; rr.ticks++ {
		if err := rp.tick(batch, -(rr.ticks + 1)); err != nil {
			return nil, err
		}
	}
	rr.fallbacks = rp.fallbacks

	rr.layerSelfMs = map[string]float64{}
	for l, d := range layerSelfTimes(rr.t.spans) {
		rr.layerSelfMs[l] = ms(d)
	}
	rr.spanFile = filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", wl.name, o.seed))
	if err := rr.t.write(rr.spanFile); err != nil {
		return nil, err
	}
	return rr, nil
}

// startFollow indexes the prefix of a follow-live trace the way the
// server's follow load does, opens a tail reader at its end, and builds
// the first live window.
func (r *replayer) startFollow(in *inputs, opts microscopic.IndexOptions) error {
	src, err := traceio.OpenFile(in.path)
	if err != nil {
		return err
	}
	defer src.Close()
	fs := &prefixSource{src: src, left: in.prefixEvents}
	start, _ := src.Window()
	fs.end = start
	if r.resl, err = microscopic.NewReslicerIndexed(fs, opts); err != nil {
		return err
	}
	r.horizon = fs.end
	if r.tail, err = traceio.OpenTailAt(in.path, in.prefixOffset); err != nil {
		return err
	}
	if r.anchor, err = timeslice.New(start, start+followLiveN*(in.end/followLiveSlice), followLiveN); err != nil {
		return err
	}
	r.pan = sealedPan(r.anchor, r.horizon)
	m, err := r.resl.BuildAt(r.anchor.Shift(r.pan))
	if err != nil {
		return err
	}
	if r.live, err = core.NewInputContext(r.ctx, m, r.opts); err != nil {
		return err
	}
	r.cache.put(r.live)
	return nil
}

// prefixSource feeds the first left events of a trace to the index
// builder with the window ending at the horizon (the latest start read),
// as the server's follow load does. The horizon is known only after the
// prefix is read, so it reads the prefix up front.
type prefixSource struct {
	src  traceio.Reader
	left int
	evs  []trace.Event
	i    int
	read bool
	end  float64
}

func (p *prefixSource) fill() error {
	if p.read {
		return nil
	}
	p.read = true
	var ev trace.Event
	for len(p.evs) < p.left {
		if err := p.src.Next(&ev); err != nil {
			return err
		}
		p.end = math.Max(p.end, ev.Start)
		p.evs = append(p.evs, ev)
	}
	return nil
}

func (p *prefixSource) Resources() []string { return p.src.Resources() }
func (p *prefixSource) States() []string    { return p.src.States() }
func (p *prefixSource) Window() (float64, float64) {
	start, _ := p.src.Window()
	if err := p.fill(); err != nil {
		return start, start
	}
	return start, p.end
}
func (p *prefixSource) Next(ev *trace.Event) error {
	if err := p.fill(); err != nil {
		return err
	}
	if p.i >= len(p.evs) {
		return io.EOF
	}
	*ev = p.evs[p.i]
	p.i++
	return nil
}
