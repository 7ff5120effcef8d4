package server

import (
	"container/list"
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"ocelotl/internal/core"
	"ocelotl/internal/failpoint"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/timeslice"
)

// BuildKind records how a window's Input was obtained, for the
// per-request log line and /debug/cachestats.
type BuildKind string

const (
	// BuildHit: the exact window was cached.
	BuildHit BuildKind = "hit"
	// BuildDerived: a miss served by Input.UpdateContext from the nearest
	// cached overlapping window (O(Δ·|T|) per node instead of O(|T|²)).
	BuildDerived BuildKind = "derived"
	// BuildScratch: a miss with no overlapping neighbor — a full
	// NewInputContext over a Reslicer-filled model.
	BuildScratch BuildKind = "scratch"
	// BuildCoalesced: the request piggybacked on an identical in-flight
	// build (singleflight).
	BuildCoalesced BuildKind = "coalesced"
	// BuildPreview: a refine request answered with a coarse covering
	// cached window while the fine build proceeds in the background.
	BuildPreview BuildKind = "preview"
)

// windowKey identifies one cached Input by (trace, grid level, window):
// the trace load (id + its load generation, so a reloaded id never
// matches the old load's entries or in-flight builds), the pyramid level
// — the slice width as exact float bits, computed canonically from the
// window so every derivation of the same window agrees — and the window's
// position at that level (slice count + exact boundary floats). Two
// windows on the same grid at different offsets share a level but hash to
// different keys; the grid relation between them is what the derivation
// path exploits, and the shared level is what the ladder pins.
type windowKey struct {
	trace      string
	gen        uint64
	level      uint64
	slices     int
	start, end float64
}

// levelOf is the canonical pyramid level of a window: the float bits of
// its slice width derived from the public boundary floats (never the
// slicer's internal grid width, which can differ in the last ulp between
// a New-built and a Shift-derived slicer for the same window). A pure
// function of (start, end, slices), so it adds no distinctions to key
// equality — it names the resolution axis the ladder is organized along.
func levelOf(sl timeslice.Slicer) uint64 {
	return math.Float64bits((sl.End - sl.Start) / float64(sl.N))
}

// entry is one cached Input on the LRU list. ov memoizes the entry's
// pair-merged coarse overview (core.Input.CoarsenContext) for progressive
// responses: built at most once, labeled preview on the wire, and never
// inserted under a window key of its own — merge-derived floats may
// differ in the last ulp from an event-index build at the coarse grid,
// and window keys promise byte-identity with scratch.
type entry struct {
	key   windowKey
	in    *core.Input
	bytes int // in + ovBytes, charged against the budget

	ovMu    sync.Mutex
	ov      *core.Input // written under both ovMu and the cache mu
	ovBytes int         // guarded by the cache mu, not ovMu
}

// traceGen addresses one trace load's ladder.
type traceGen struct {
	trace string
	gen   uint64
}

// ladder is one trace load's multi-resolution state: per grid level, the
// key of the level's resident (most recently used) entry — pinned against
// eviction so a hot trace keeps one window per visited resolution warm —
// plus the level of the trace's last window request, which classifies the
// next request as a pan (same level) or a zoom (level change).
type ladder struct {
	resident map[uint64]windowKey
	order    []uint64 // least → most recently used level
	last     uint64
	hasLast  bool
}

// DefaultLadderLevels bounds each trace's pinned ladder when no cap is
// configured; levels beyond the cap lose their pin oldest-first (their
// entries still cache normally).
const DefaultLadderLevels = core.DefaultPyramidLevels

// flight is one in-flight build; concurrent requests for the same key
// wait on done instead of building again. The build runs under the
// flight's own context, detached from the leader's request: a singleflight
// result is shared, so one impatient caller must not kill work other
// callers still want. Instead every participant (leader included) holds a
// waiter reference; a caller whose request context dies drops its
// reference, and when the count reaches zero — every response that would
// have carried this Input has been abandoned — cancel fires and the build
// aborts at its next check.
type flight struct {
	done chan struct{}
	in   *core.Input
	kind BuildKind
	err  error

	ctx     context.Context // the build's detached context
	cancel  context.CancelFunc
	waiters int // guarded by the cache mu; leader counts as one
}

// InputCache is the window-keyed Input cache of the serving layer: an LRU
// over (trace, grid level, window) with a byte budget derived from
// core.Input.MemoryBytes. A miss does not go straight to NewInputContext —
// it first looks for the nearest cached window of the same trace and shape
// that overlaps the request on its slice grid (microscopic.GridOverlap) and
// derives the new Input incrementally via Input.UpdateContext, falling back
// to a from-scratch build only when nothing overlaps. Concurrent requests
// for the same window are deduplicated (singleflight): one build runs, the
// rest wait for its result.
//
// On top of the LRU the cache maintains one multi-resolution ladder per
// hot trace, lazily: the most recent entry of each visited grid level is
// pinned against the first eviction pass (see evictToBudgetLocked), so a
// zoom back to a resolution the analyst has touched before lands next to
// a warm same-level window and resolves as a hit or pan-derivation — the
// serving-layer form of core.Pyramid, with a byte budget and
// singleflight on top.
type InputCache struct {
	budget    int64
	opts      core.Options
	ladderMax int
	// gate, when non-nil, bounds how many flights build at once and
	// sheds deadline-doomed or over-queued builds (see buildGate). Set by
	// the Server; hits and coalesced waits never touch it.
	gate *buildGate

	mu       sync.Mutex
	lru      *list.List // of *entry; front = most recently used
	entries  map[windowKey]*list.Element
	inflight map[windowKey]*flight
	bytes    int64
	// purged[trace] is the highest unloaded generation per trace id:
	// inserts at or below it (builds that were in flight across an
	// unload) are discarded instead of parking unreachable entries
	// against the budget.
	purged map[string]uint64
	// ladders holds the per-trace-load multi-resolution ladders: which
	// entry is resident (and pinned) per grid level, and the last
	// requested level for zoom classification.
	ladders map[traceGen]*ladder

	stats Stats
}

// NewInputCache returns a cache holding at most budget bytes of Input
// arenas (≤ 0 keeps nothing cached — every request builds, which the
// eviction and benchmark paths use). opts configures every Input built
// through the cache; ladderLevels caps each trace's pinned resolution
// ladder (≤ 0 means DefaultLadderLevels).
func NewInputCache(budget int64, opts core.Options, ladderLevels int) *InputCache {
	if ladderLevels <= 0 {
		ladderLevels = DefaultLadderLevels
	}
	return &InputCache{
		budget:    budget,
		opts:      opts,
		ladderMax: ladderLevels,
		lru:       list.New(),
		entries:   make(map[windowKey]*list.Element),
		inflight:  make(map[windowKey]*flight),
		purged:    make(map[string]uint64),
		ladders:   make(map[traceGen]*ladder),
	}
}

func keyFor(tr *Trace, sl timeslice.Slicer) windowKey {
	return windowKey{trace: tr.ID, gen: tr.gen, level: levelOf(sl), slices: sl.N, start: sl.Start, end: sl.End}
}

// Get returns the Input for the trace restricted to sl's window, and how
// it was obtained. The returned Input is immutable and remains valid
// after eviction; callers never hold cache locks while using it.
//
// ctx is the caller's request context. A cache hit is served regardless
// (it costs one map lookup). On a miss the build runs under the flight's
// detached context (see flight); ctx only governs this caller's stake in
// it — an already-cancelled ctx returns ctx.Err() before any work starts,
// and a ctx cancelled mid-wait abandons the flight (the build itself dies
// only once every waiter has abandoned it).
//
// A cancellation error is therefore only ever this caller's own: a live
// request that runs into a flight all of whose waiters already cancelled
// does not inherit the dying build's ctx.Err() — it waits out the
// abandoned flight's unwind and retries with a fresh build.
func (c *InputCache) Get(ctx context.Context, tr *Trace, sl timeslice.Slicer) (*core.Input, BuildKind, error) {
	for {
		in, kind, err := c.getOnce(ctx, tr, sl)
		if err != nil && isCancellation(err) && ctx.Err() == nil {
			// The flight this caller coalesced onto was abandoned by its
			// other waiters and died with their cancellation, not ours.
			// The flight is (or is about to be) out of the inflight map;
			// go again and build it for real.
			continue
		}
		return in, kind, err
	}
}

func (c *InputCache) getOnce(ctx context.Context, tr *Trace, sl timeslice.Slicer) (*core.Input, BuildKind, error) {
	key := keyFor(tr, sl)

	c.mu.Lock()
	zoom := c.noteLevelLocked(key)
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		c.stats.Hits.Add(1)
		in := el.Value.(*entry).in
		c.touchLadderLocked(key)
		c.refreshLocked(el)
		c.mu.Unlock()
		return in, BuildHit, nil
	}
	if err := ctx.Err(); err != nil {
		// Expired before any build work: fail fast rather than start (or
		// pile onto) a build whose response this caller will never read.
		c.mu.Unlock()
		return nil, "", err
	}
	if f, ok := c.inflight[key]; ok {
		if f.ctx.Err() != nil {
			// Every waiter already abandoned this flight; its build is
			// unwinding toward a cancellation error. Joining it would only
			// inherit that error — wait out the unwind instead, then let
			// the caller's retry start a fresh flight.
			c.mu.Unlock()
			select {
			case <-f.done:
				return nil, BuildCoalesced, context.Canceled
			case <-ctx.Done():
				return nil, BuildCoalesced, ctx.Err()
			}
		}
		c.stats.Coalesced.Add(1)
		f.waiters++
		c.mu.Unlock()
		c.watchWaiter(f, ctx)
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, BuildCoalesced, ctx.Err()
		}
		if f.err != nil {
			return nil, BuildCoalesced, f.err
		}
		return f.in, BuildCoalesced, nil
	}
	fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	f := &flight{done: make(chan struct{}), ctx: fctx, cancel: cancel, waiters: 1}
	c.inflight[key] = f
	c.stats.Misses.Add(1)
	src, aligned := c.nearestLocked(tr, sl)
	c.mu.Unlock()
	c.watchWaiter(f, ctx)

	f.in, f.kind, f.err = c.runBuild(fctx, ctx, tr, sl, src, aligned)

	c.mu.Lock()
	delete(c.inflight, key)
	if f.err == nil {
		c.insertLocked(keyFor(tr, f.in.Model.Slicer), f.in)
		if zoom {
			// A resolution change that built: the ladder either made it a
			// derivation (the level was warm) or it fell through to the
			// event index. Same-level builds are pans, counted elsewhere.
			switch f.kind {
			case BuildDerived:
				c.stats.ZoomDerived.Add(1)
			case BuildScratch:
				c.stats.ZoomScratch.Add(1)
			}
		}
	}
	c.mu.Unlock()
	close(f.done)
	cancel() // release the flight context's resources
	return f.in, f.kind, f.err
}

// watchWaiter ties one caller's request context to a flight: when the
// caller's ctx dies, its waiter reference is dropped, and the last drop
// cancels the flight's build context. The goroutine exits as soon as the
// flight completes, so a finished flight pins nothing. Contexts that can
// never be cancelled (ctx.Done() == nil, e.g. context.Background()) hold
// their reference forever without spawning anything.
func (c *InputCache) watchWaiter(f *flight, ctx context.Context) {
	if ctx.Done() == nil {
		return
	}
	go func() {
		select {
		case <-ctx.Done():
			c.mu.Lock()
			f.waiters--
			abandoned := f.waiters == 0
			c.mu.Unlock()
			if abandoned {
				f.cancel()
			}
		case <-f.done:
		}
	}()
}

// nearestLocked finds the cached window of the same trace load and slice
// count sharing the most slices with target, together with target
// re-anchored onto that entry's grid. Windows built independently at the
// same resolution carry distinct float anchors even when their grids
// coincide, so alignment goes two ways: the exact grid relation first
// (microscopic.GridOverlap), then a numeric re-anchor that is accepted
// only if shifting the candidate's slicer reproduces the requested
// boundary floats bit-exactly.
func (c *InputCache) nearestLocked(tr *Trace, target timeslice.Slicer) (*entry, timeslice.Slicer) {
	var best *entry
	bestW := 0
	bestSl := target
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		if e.key.trace != tr.ID || e.key.gen != tr.gen || e.key.slices != target.N {
			continue
		}
		cand := e.in.Model.Slicer
		ov := microscopic.GridOverlap(cand, target)
		sl := target
		if !ov.Shared() {
			var ok bool
			if sl, ok = reanchor(cand, target); !ok {
				continue
			}
			ov = microscopic.GridOverlap(cand, sl)
		}
		if ov.W > bestW {
			best, bestW, bestSl = e, ov.W, sl
		}
	}
	return best, bestSl
}

// reanchor tries to express target on base's grid: if some k-slice shift
// of base reproduces target's boundary floats exactly, the shifted slicer
// is target as base's grid sees it. Anything short of bit-exact equality
// is rejected — close-but-different windows must rebuild, never reuse.
func reanchor(base, target timeslice.Slicer) (timeslice.Slicer, bool) {
	w := base.Width()
	if w <= 0 || base.N != target.N {
		return timeslice.Slicer{}, false
	}
	k := int(math.Round((target.Start - base.Start) / w))
	cand := base.Shift(k)
	if cand.Start != target.Start || cand.End != target.End {
		return timeslice.Slicer{}, false
	}
	return cand, true
}

// ladderLocked returns (creating if needed) the trace load's ladder.
func (c *InputCache) ladderLocked(tg traceGen) *ladder {
	ld := c.ladders[tg]
	if ld == nil {
		ld = &ladder{resident: make(map[uint64]windowKey)}
		c.ladders[tg] = ld
	}
	return ld
}

// noteLevelLocked records key's grid level as the trace's last requested
// resolution and reports whether this request changed level — a zoom, as
// opposed to a pan or re-query at the current resolution.
func (c *InputCache) noteLevelLocked(key windowKey) bool {
	ld := c.ladderLocked(traceGen{key.trace, key.gen})
	zoom := ld.hasLast && ld.last != key.level
	ld.last, ld.hasLast = key.level, true
	return zoom
}

// touchLadderLocked makes key the resident of its grid level and moves
// the level to the most-recently-used end, dropping the oldest level's
// pin beyond the cap. The resident entry per level is exempt from the
// first eviction pass, so a hot trace's ladder survives pressure from
// one-off windows.
func (c *InputCache) touchLadderLocked(key windowKey) {
	ld := c.ladderLocked(traceGen{key.trace, key.gen})
	if _, ok := ld.resident[key.level]; !ok && len(ld.resident) >= c.ladderMax {
		oldest := ld.order[0]
		ld.order = ld.order[1:]
		delete(ld.resident, oldest)
	}
	for i, l := range ld.order {
		if l == key.level {
			ld.order = append(ld.order[:i], ld.order[i+1:]...)
			break
		}
	}
	ld.order = append(ld.order, key.level)
	ld.resident[key.level] = key
}

// pinnedLocked reports whether e is its level's ladder resident.
func (c *InputCache) pinnedLocked(e *entry) bool {
	ld := c.ladders[traceGen{e.key.trace, e.key.gen}]
	return ld != nil && ld.resident[e.key.level] == e.key
}

// Admit is the arithmetic admission guard: it rejects a window whose
// Input alone would exceed the cache budget, computed from the trace and
// slice-count shape (core.EstimateMemoryBytes) before any arena is
// allocated or any build starts — one oversized request must not evict an
// entire working ladder just to cache a single entry that the next insert
// drops anyway. A disabled cache admits everything (there is no ladder to
// protect).
func (c *InputCache) Admit(tr *Trace, sl timeslice.Slicer) error {
	if c.budget <= 0 {
		return nil
	}
	est := core.EstimateMemoryBytes(tr.resl.Hierarchy().NumNodes(), len(tr.resl.States()), sl.N)
	// Disk-backed indexes keep decoded chunks resident while serving
	// fills; that memory shares the machine with the Input arenas, so
	// admission charges it against the budget instead of pretending the
	// arenas are the only residents.
	avail := c.budget - tr.resl.OpenChunkBytes()
	if est > avail {
		c.stats.Rejected.Add(1)
		return fmt.Errorf("window at %d slices needs ~%d bytes of Input arenas, cache budget is %d bytes (%d held by open index chunks)",
			sl.N, est, c.budget, c.budget-avail)
	}
	return nil
}

// Cached reports whether sl's exact window is resident (refine probe —
// no stats, no LRU movement).
func (c *InputCache) Cached(tr *Trace, sl timeslice.Slicer) bool {
	key := keyFor(tr, sl)
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// Preview returns a coarse stand-in for sl's window for progressive
// responses: the tightest cached window of the same trace load that
// contains [sl.Start, sl.End] — any level — served through its memoized
// pair-merged overview. Nil when nothing covers the request (first touch
// of a region) — the caller falls back to the synchronous path.
func (c *InputCache) Preview(tr *Trace, sl timeslice.Slicer) *core.Input {
	key := keyFor(tr, sl)
	c.mu.Lock()
	var best *entry
	var bestEl *list.Element
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		if e.key.trace != tr.ID || e.key.gen != tr.gen || e.key == key {
			continue
		}
		if e.key.start > sl.Start || e.key.end < sl.End {
			continue
		}
		if best == nil || e.key.end-e.key.start < best.key.end-best.key.start {
			best, bestEl = e, el
		}
	}
	if best == nil {
		c.mu.Unlock()
		return nil
	}
	c.lru.MoveToFront(bestEl)
	c.mu.Unlock()
	return c.overview(best)
}

// previewCoarsenMin: below this |T| a covering window is cheap enough to
// solve as-is and doubles as its own preview; at or above it the preview
// runs at half resolution (the solve is O(|T|³) — the coarse overview
// answers ~8× faster).
const previewCoarsenMin = 32

// overview returns e's preview Input: the entry's own Input for small
// windows, otherwise its factor-2 coarsening, built at most once per
// entry and charged against the cache budget alongside the entry. The
// coarsening runs under a background context: the memoized overview is
// shared by every later request, so no one request's cancellation should
// abandon it.
func (c *InputCache) overview(e *entry) *core.Input {
	if e.key.slices < previewCoarsenMin || e.key.slices%2 != 0 {
		return e.in
	}
	e.ovMu.Lock()
	defer e.ovMu.Unlock()
	if e.ov == nil {
		ov, err := e.in.CoarsenContext(context.Background(), 2)
		if err != nil {
			return e.in
		}
		c.mu.Lock()
		e.ov = ov
		if el, ok := c.entries[e.key]; ok && el.Value.(*entry) == e {
			e.ovBytes = ov.MemoryBytes()
			e.bytes += e.ovBytes
			c.bytes += int64(e.ovBytes)
			c.evictToBudgetLocked()
		}
		c.mu.Unlock()
	}
	return e.ov
}

// FailpointFlight names the fault-injection site at the start of every
// singleflight build, evaluated with the flight's detached context.
// Chaos tests inject errors, delays and panics here; deterministic tests
// use failpoint.EnableFunc to hold a build in place and observe the
// all-waiters-cancelled semantics.
const FailpointFlight = "server/flight"

// runBuild is build wrapped in the overload and fault armor every flight
// gets: the build gate (bounded concurrency, FIFO queue, early shedding
// — reqCtx contributes the deadline the doom check runs against) and a
// panic barrier. A panicking build must fail its flight like any other
// error — the normal unwind in getOnce still deletes the inflight entry
// and closes f.done, so every coalesced waiter gets the 500 instead of
// blocking forever on a flight that will never complete.
func (c *InputCache) runBuild(ctx, reqCtx context.Context, tr *Trace, sl timeslice.Slicer, src *entry, aligned timeslice.Slicer) (in *core.Input, kind BuildKind, err error) {
	defer func() {
		if r := recover(); r != nil {
			c.stats.Panics.Add(1)
			in, kind = nil, ""
			err = fmt.Errorf("window build panicked: %v", r)
		}
	}()
	if c.gate != nil {
		release, gerr := c.gate.Acquire(ctx, reqCtx)
		if gerr != nil {
			return nil, "", gerr
		}
		start := time.Now()
		defer func() {
			c.gate.RecordBuild(time.Since(start))
			release()
		}()
	}
	return c.build(ctx, tr, sl, src, aligned)
}

// build produces the Input for sl outside the cache lock: derived from
// src when a neighbor overlaps, from scratch otherwise. src.in is
// immutable, so the build is safe even if the entry is evicted meanwhile.
// ctx is the flight's detached context: it is checked between the build's
// stages (model fill, input pass) and — through NewInputContext /
// UpdateContext — once per hierarchy node inside the matrix fill itself,
// so a flight every waiter abandoned dies mid-fill rather than running
// its most expensive step to completion for a dead Input.
func (c *InputCache) build(ctx context.Context, tr *Trace, sl timeslice.Slicer, src *entry, aligned timeslice.Slicer) (*core.Input, BuildKind, error) {
	if err := failpoint.InjectContext(ctx, FailpointFlight); err != nil {
		return nil, "", err
	}
	if err := ctx.Err(); err != nil {
		return nil, "", err
	}
	if src != nil {
		if ov := microscopic.GridOverlap(src.in.Model.Slicer, aligned); ov.Shared() {
			m, shiftOv, err := tr.resl.Shift(src.in.Model, ov.Shift())
			if err != nil {
				return nil, "", err
			}
			if err := ctx.Err(); err != nil {
				return nil, "", err
			}
			in, err := src.in.UpdateContext(ctx, m, shiftOv)
			if err != nil {
				return nil, "", err
			}
			c.stats.Derived.Add(1)
			return in, BuildDerived, nil
		}
	}
	m, err := tr.resl.BuildAt(sl)
	if err != nil {
		return nil, "", err
	}
	if err := ctx.Err(); err != nil {
		return nil, "", err
	}
	in, err := core.NewInputContext(ctx, m, c.opts)
	if err != nil {
		return nil, "", err
	}
	c.stats.Scratch.Add(1)
	return in, BuildScratch, nil
}

// noteAborted records one cancelled request in the serve stats; the
// handlers call it whenever they map a cancellation to a client response.
func (c *InputCache) noteAborted() { c.stats.Aborted.Add(1) }

// noteAnswerHit counts a solve served from a cached Input's answer memo.
func (c *InputCache) noteAnswerHit() { c.stats.AnswerHits.Add(1) }

// noteShed records one load-shed request (503 + Retry-After).
func (c *InputCache) noteShed() { c.stats.Shed.Add(1) }

// notePanic records one recovered panic (handler middleware; flight
// panics are counted at the recovery site in runBuild).
func (c *InputCache) notePanic() { c.stats.Panics.Add(1) }

// noteDegraded records one request answered with the coarse preview
// because the fine build was slow or faulted.
func (c *InputCache) noteDegraded() { c.stats.Degraded.Add(1) }

// noteSweep records one multi-p query served through the fused sweep path
// (/significant, /quality) and the number of p points it answered.
func (c *InputCache) noteSweep(ps int) {
	c.stats.SweepQueries.Add(1)
	c.stats.SweepPs.Add(int64(ps))
}

// insertLocked caches in under key and evicts from the LRU tail until the
// byte budget holds. The inserted entry itself is exempt from its own
// eviction pass (an over-budget single Input still serves its request and
// is dropped on the next insert).
func (c *InputCache) insertLocked(key windowKey, in *core.Input) {
	if c.budget <= 0 {
		return
	}
	if key.gen <= c.purged[key.trace] { // built across an unload: discard
		return
	}
	if el, ok := c.entries[key]; ok { // lost a race with an equivalent build
		c.lru.MoveToFront(el)
		c.touchLadderLocked(key)
		return
	}
	e := &entry{key: key, in: in, bytes: in.MemoryBytes()}
	c.entries[key] = c.lru.PushFront(e)
	c.bytes += int64(e.bytes)
	c.touchLadderLocked(key)
	c.evictToBudgetLocked()
}

// Seed inserts an already-built Input under its own window key — the
// follower's per-tick publish of the live window, so the first query
// after a tick is a plain hit. Subject to the same admission rules as a
// miss-path insert (budget, purge floor, ladder accounting).
func (c *InputCache) Seed(tr *Trace, in *core.Input) {
	if in == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insertLocked(keyFor(tr, in.Model.Slicer), in)
}

// refreshLocked re-reads an entry's byte cost — its Input's and its
// overview's, which grow as their bounded solver pools warm up and their
// answer memos fill — and reruns eviction if the total overflows; the
// refreshed entry sits at the LRU front, so it is never its own victim.
func (c *InputCache) refreshLocked(el *list.Element) {
	e := el.Value.(*entry)
	if e.ov != nil {
		e.ovBytes = e.ov.MemoryBytes()
	}
	now := e.in.MemoryBytes() + e.ovBytes
	if now == e.bytes {
		return
	}
	c.bytes += int64(now - e.bytes)
	e.bytes = now
	c.evictToBudgetLocked()
}

// evictToBudgetLocked brings the cache back under budget in two passes
// from the LRU tail: first sparing ladder residents (one window per
// visited resolution per hot trace stays warm under pressure from
// one-off windows), then — if the pins alone still overflow — evicting
// regardless, because the byte budget is the harder promise. The LRU
// front (the entry that triggered the pass) is never its own victim.
func (c *InputCache) evictToBudgetLocked() {
	var prev *list.Element
	for el := c.lru.Back(); el != nil && el.Prev() != nil && c.bytes > c.budget; el = prev {
		prev = el.Prev()
		if c.pinnedLocked(el.Value.(*entry)) {
			continue
		}
		c.evictLocked(el)
	}
	for c.bytes > c.budget && c.lru.Len() > 1 {
		c.evictLocked(c.lru.Back())
	}
}

func (c *InputCache) evictLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.lru.Remove(el)
	delete(c.entries, e.key)
	c.bytes -= int64(e.bytes)
	c.stats.Evictions.Add(1)
	if ld := c.ladders[traceGen{e.key.trace, e.key.gen}]; ld != nil && ld.resident[e.key.level] == e.key {
		delete(ld.resident, e.key.level)
		for i, l := range ld.order {
			if l == e.key.level {
				ld.order = append(ld.order[:i], ld.order[i+1:]...)
				break
			}
		}
	}
}

// PurgeTrace drops every cached window of the given trace (unload path)
// and records gen as the trace's purged-generation floor, so builds still
// in flight for the unloaded generation discard their result at insert
// instead of parking an unreachable entry against the budget.
func (c *InputCache) PurgeTrace(traceID string, gen uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen > c.purged[traceID] {
		c.purged[traceID] = gen
	}
	for tg := range c.ladders {
		if tg.trace == traceID {
			delete(c.ladders, tg)
		}
	}
	n := 0
	var next *list.Element
	for el := c.lru.Front(); el != nil; el = next {
		next = el.Next()
		if el.Value.(*entry).key.trace == traceID {
			c.evictLocked(el)
			n++
		}
	}
	return n
}

// Snapshot returns the current counters plus the cache's occupancy.
func (c *InputCache) Snapshot() StatsSnapshot {
	c.mu.Lock()
	entries, bytes := c.lru.Len(), c.bytes
	c.mu.Unlock()
	s := c.stats.snapshot()
	s.Entries = entries
	s.Bytes = bytes
	s.BudgetBytes = c.budget
	return s
}

// insertStaleForTest re-inserts a scratch build under an old trace
// generation, simulating a build that was in flight across an unload;
// tests use it to prove generation isolation.
func (c *InputCache) insertStaleForTest(tr *Trace, sl timeslice.Slicer) {
	m, err := tr.resl.BuildAt(sl)
	if err != nil {
		panic(err) // test-only helper; RAM-backed fills cannot fail
	}
	in, err := core.NewInputContext(context.Background(), m, c.opts)
	if err != nil {
		panic(err) // test-only helper; a background build fails only under an armed failpoint
	}
	c.mu.Lock()
	c.insertLocked(keyFor(tr, sl), in)
	c.mu.Unlock()
}
