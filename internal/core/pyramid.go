package core

import (
	"context"
	"fmt"
	"math"
	"sync"

	"ocelotl/internal/failpoint"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/timeslice"
)

// FailpointCoarsen names the fault-injection site at the head of every
// pair-merge coarsening (preview overviews) — chaos tests use it to fail
// the degrade path independently of the fine build.
const FailpointCoarsen = "core/coarsen"

// CoarsenContext derives the Input one pyramid level up: the same window
// at factor× the slice width (factor a power of two dividing |T|),
// computed from this input's model by slice-pair merging
// (microscopic.MergePairs) and therefore bit-identical to NewInputContext
// at the coarse grid — the merged model's rows are exactly this input's
// leaf slice rows summed in pairs, and the input pass over them is the one
// shared fill path. The property tests enforce the equality down to the
// float.
//
// Against a from-scratch coarse build, CoarsenContext skips the
// event-index fill entirely (the merge is O(|X|·|S|·|T|), independent of
// event count) and its matrix pass is (1/factor²) the size of the fine
// one — the overview economics the serving layer's progressive responses
// ride on: an analyst's coarse preview costs a fraction of the window
// they are waiting for.
//
// ctx is checked once per hierarchy node inside the coarse matrix fill,
// like every other input pass.
func (in *Input) CoarsenContext(ctx context.Context, factor int) (*Input, error) {
	if err := failpoint.InjectContext(ctx, FailpointCoarsen); err != nil {
		return nil, err
	}
	m, err := in.Model.MergePairs(factor)
	if err != nil {
		return nil, fmt.Errorf("core: coarsen: %w", err)
	}
	return NewInputContext(ctx, m, Options{
		Normalize:       in.normalize,
		Workers:         in.workers,
		SolverPoolBound: in.poolBound,
	})
}

// gridID identifies one pyramid level: a slice grid's (origin, width) as
// exact float bits. Windows on the same grid at different offsets — pans
// of one another — share a gridID; any change of slice width (a zoom) is
// a different level.
type gridID struct {
	base, width uint64
}

func gridOf(sl timeslice.Slicer) gridID {
	base, width, _ := sl.Grid()
	return gridID{math.Float64bits(base), math.Float64bits(width)}
}

// ResolveKind reports how Pyramid.Resolve obtained an Input.
type ResolveKind string

const (
	// ResolveHit: the exact window was the level's resident Input.
	ResolveHit ResolveKind = "hit"
	// ResolvePan: the level was resident at another offset; the Input was
	// pan-derived from it via UpdateContext (O(Δ·|T|) per node).
	ResolvePan ResolveKind = "pan"
	// ResolveScratch: no resident level matched the request's grid; the
	// Input was built from the event index.
	ResolveScratch ResolveKind = "scratch"
)

// Pyramid is the engine-level multi-resolution ladder: per slice-width
// grid level, the most recently used Input, so that a zoom to a warm
// level resolves by hit or same-grid pan-derivation — the existing
// bit-identical UpdateContext path — before touching the event index. It
// turns the aggregate-overview-then-drill loop into pan economics: the
// first visit to a resolution pays a scratch build, every later visit
// pays O(Δ·|T|) per node.
//
// The ladder holds at most maxLevels resident Inputs (least recently used
// level dropped first), bounding the extra residency at
// maxLevels·O(|H(S)|·|T|²). The serving layer's InputCache implements the
// same idea with a byte budget, singleflight and per-trace generations;
// Pyramid is the dependency-free form for the CLI, benchmarks and
// embedders driving a Reslicer directly.
//
// A Pyramid is safe for concurrent use. Builds run outside the lock, so
// concurrent misses of one level may build twice (last insert wins) —
// callers needing build dedup use the serving layer.
type Pyramid struct {
	r    *microscopic.Reslicer
	opts Options
	max  int

	mu     sync.Mutex
	levels map[gridID]*Input
	order  []gridID // least → most recently used
}

// DefaultPyramidLevels bounds the resident ladder when NewPyramid is
// given no cap: 8 levels spans a 128× zoom range at factor-2 steps.
const DefaultPyramidLevels = 8

// NewPyramid returns an empty ladder over r. opts configures every Input
// it builds; maxLevels ≤ 0 means DefaultPyramidLevels.
func NewPyramid(r *microscopic.Reslicer, opts Options, maxLevels int) *Pyramid {
	if maxLevels <= 0 {
		maxLevels = DefaultPyramidLevels
	}
	return &Pyramid{r: r, opts: opts, max: maxLevels, levels: make(map[gridID]*Input)}
}

// Resolve returns the Input for sl's window, preferring the ladder: an
// exact resident window is returned as-is, a resident window on the same
// grid pan-derives (Reslicer.Shift + Input.UpdateContext — bit-identical
// to scratch by the UpdateContext property), and only an unknown grid
// level falls through to the event index. The resolved Input becomes its
// level's resident.
func (p *Pyramid) Resolve(ctx context.Context, sl timeslice.Slicer) (*Input, ResolveKind, error) {
	gid := gridOf(sl)
	p.mu.Lock()
	res := p.levels[gid]
	p.mu.Unlock()

	if res != nil && res.Model.Slicer.N == sl.N {
		src := res.Model.Slicer
		if k, ok := src.OnGrid(sl); ok {
			if k == 0 {
				p.touch(gid, res)
				return res, ResolveHit, nil
			}
			m, ov, err := p.r.Shift(res.Model, k)
			if err != nil {
				return nil, "", err
			}
			in, err := res.UpdateContext(ctx, m, ov)
			if err != nil {
				return nil, "", err
			}
			p.touch(gid, in)
			return in, ResolvePan, nil
		}
	}
	m, err := p.r.BuildAt(sl)
	if err != nil {
		return nil, "", err
	}
	in, err := NewInputContext(ctx, m, p.opts)
	if err != nil {
		return nil, "", err
	}
	p.touch(gid, in)
	return in, ResolveScratch, nil
}

// Zoom resolves the window covered by slices [lo, hi] of in's window,
// re-sliced to in's slice count — the pyramid-aware counterpart of
// Input.Zoom. A full-width range is a pan on in's own grid; any other
// range addresses a different level, found in the ladder when the same
// zoom (or a pan of it) ran before. Repeating the paper's
// overview-then-drill loop therefore pays scratch once per resolution and
// pan prices after.
func (p *Pyramid) Zoom(ctx context.Context, in *Input, lo, hi int) (*Input, ResolveKind, error) {
	T := in.Model.Slicer.N
	if hi < lo {
		return nil, "", fmt.Errorf("core: zoom range [%d,%d] inverted", lo, hi)
	}
	if hi-lo+1 == T { // same width: a pan on in's grid
		return p.Resolve(ctx, in.Model.Slicer.Shift(lo))
	}
	start, end := in.Model.Slicer.IntervalBounds(lo, hi)
	sl, err := timeslice.New(start, end, T)
	if err != nil {
		return nil, "", fmt.Errorf("core: zoom: %w", err)
	}
	return p.Resolve(ctx, sl)
}

// touch makes in the resident Input of level gid and moves the level to
// the most-recently-used end, dropping the least recently used level
// beyond the cap.
func (p *Pyramid) touch(gid gridID, in *Input) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.levels[gid]; !ok && len(p.levels) >= p.max {
		oldest := p.order[0]
		p.order = p.order[1:]
		delete(p.levels, oldest)
	}
	for i, g := range p.order {
		if g == gid {
			p.order = append(p.order[:i], p.order[i+1:]...)
			break
		}
	}
	p.order = append(p.order, gid)
	p.levels[gid] = in
}

// Levels reports the resident level count (observability, tests).
func (p *Pyramid) Levels() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.levels)
}

// MemoryBytes totals the resident Inputs' MemoryBytes — the ladder's
// bounded extra residency.
func (p *Pyramid) MemoryBytes() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, in := range p.levels {
		n += in.MemoryBytes()
	}
	return n
}

// EstimateMemoryBytes predicts Input.MemoryBytes for a build over
// numNodes hierarchy nodes, numStates states and slices time slices,
// before any arena is allocated: the matrix triangles, slice rows, prefix
// sums and duration prefix, exactly as MemoryBytes sums them for a fresh
// Input (whose solver pool is still empty). Serving-layer admission
// guards use this to reject windows whose Input alone would blow a cache
// budget, arithmetically, before paying the build.
func EstimateMemoryBytes(numNodes, numStates, slices int) int64 {
	n, x, t := int64(numNodes), int64(numStates), int64(slices)
	cells := t * (t + 1) / 2
	floats := 2*n*cells + // gain, loss triangles
		3*n*x*t + // slcD, slcRho, slcRL
		3*n*x*(t+1) + // prefD, prefRho, prefRL
		(t + 1) // durPref
	return floats * 8
}
