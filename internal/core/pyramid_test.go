package core

import (
	"context"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"ocelotl/internal/microscopic"
)

// TestCoarsenBitIdentity: coarsening a fine Input is bit-identical to
// NewInputContext on the pair-merged model at the coarse grid — for random
// traces, hierarchies, factors, worker counts and factor-aligned pans of
// the fine window (the alignment pyramid levels guarantee).
func TestCoarsenBitIdentity(t *testing.T) {
	ctx := context.Background()
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run("workers"+strconv.Itoa(workers), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(workers) * 31))
			for trial := 0; trial < 6; trial++ {
				tr := windowTrace(rng, 5+rng.Intn(7), 400, 25)
				r, err := microscopic.NewReslicer(tr)
				if err != nil {
					t.Fatal(err)
				}
				T := []int{8, 12, 16}[rng.Intn(3)]
				factor := []int{2, 4}[rng.Intn(2)]
				m, err := r.Build(microscopic.Options{Slices: T})
				if err != nil {
					t.Fatal(err)
				}
				// Pan the fine window by a factor-aligned offset so the
				// coarse grid stays anchored, as ladder levels are.
				if k := factor * (rng.Intn(5) - 2); k != 0 {
					m, _ = testShift(t, r, m, k)
				}
				opt := Options{Workers: workers, Normalize: trial%2 == 0}
				in := mustInput(t, m, opt)
				coarse, err := in.CoarsenContext(ctx, factor)
				if err != nil {
					t.Fatalf("trial %d: Coarsen(%d): %v", trial, factor, err)
				}
				merged, err := in.Model.MergePairs(factor)
				if err != nil {
					t.Fatal(err)
				}
				fresh := mustInput(t, merged, opt)
				requireInputsBitIdentical(t, coarse, fresh,
					"trial "+strconv.Itoa(trial)+" factor "+strconv.Itoa(factor))
				if coarse.Model.Slicer.N != T/factor {
					t.Fatalf("coarse |T| = %d, want %d", coarse.Model.Slicer.N, T/factor)
				}
				if got, want := coarse.Model.Slicer.Width(), in.Model.Slicer.Width()*float64(factor); got != want {
					t.Fatalf("coarse width %v, want %v", got, want)
				}
			}
		})
	}
}

// TestCoarsenRejectsBadFactors: non-power-of-two factors, indivisible
// slice counts and unaligned grid offsets must error rather than produce
// an off-grid level.
func TestCoarsenRejectsBadFactors(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	tr := windowTrace(rng, 6, 300, 20)
	r, err := microscopic.NewReslicer(tr)
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.Build(microscopic.Options{Slices: 12})
	if err != nil {
		t.Fatal(err)
	}
	in := mustInput(t, m, Options{})
	for _, factor := range []int{0, 1, 3, 5, 8} { // 8 ∤ 12, 3/5 not powers of 2
		if _, err := in.CoarsenContext(ctx, factor); err == nil {
			t.Errorf("Coarsen(%d) on |T|=12 succeeded, want error", factor)
		}
	}
	odd, _ := testShift(t, r, m, 1) // grid offset 1: not 2-aligned
	if _, err := mustInput(t, odd, Options{}).CoarsenContext(ctx, 2); err == nil {
		t.Error("Coarsen(2) on an odd grid offset succeeded, want error")
	}
}

// TestPyramidZoomBitIdentity is the ladder's scratch-equivalence property:
// any random sequence of Pyramid Zoom/Resolve calls — hits, same-level
// pan-derivations and scratch builds alike — yields Inputs bit-identical
// to a fresh build at the resolved window.
func TestPyramidZoomBitIdentity(t *testing.T) {
	for _, workers := range []int{1, 4} {
		workers := workers
		t.Run("workers"+strconv.Itoa(workers), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(workers)*59 + 1))
			tr := windowTrace(rng, 9, 900, 30)
			r, err := microscopic.NewReslicer(tr)
			if err != nil {
				t.Fatal(err)
			}
			const T = 12
			opt := Options{Workers: workers}
			py := NewPyramid(r, opt, 4)
			m, err := r.Build(microscopic.Options{Slices: T})
			if err != nil {
				t.Fatal(err)
			}
			in, kind, err := py.Resolve(context.Background(), m.Slicer)
			if err != nil {
				t.Fatal(err)
			}
			if kind != ResolveScratch {
				t.Fatalf("first resolve: kind %q, want scratch", kind)
			}
			kinds := map[ResolveKind]int{kind: 1}
			for step := 0; step < 18; step++ {
				var label string
				switch rng.Intn(3) {
				case 0: // zoom into a sub-range (or out, via negative lo)
					lo := rng.Intn(2*T) - T/2
					hi := lo + 1 + rng.Intn(T+4)
					in, kind, err = py.Zoom(context.Background(), in, lo, hi)
					label = "Zoom(" + strconv.Itoa(lo) + "," + strconv.Itoa(hi) + ")"
				case 1: // pan on the current grid
					k := rng.Intn(2*T) - T
					in, kind, err = py.Resolve(context.Background(), in.Model.Slicer.Shift(k))
					label = "Pan(" + strconv.Itoa(k) + ")"
				default: // revisit: resolve the exact current window again
					in, kind, err = py.Resolve(context.Background(), in.Model.Slicer)
					label = "Revisit"
				}
				if err != nil {
					t.Fatalf("step %d %s: %v", step, label, err)
				}
				kinds[kind]++
				fresh := mustInput(t, testBuildAt(t, r, in.Model.Slicer), opt)
				requireInputsBitIdentical(t, in, fresh,
					"step "+strconv.Itoa(step)+" "+label+" ("+string(kind)+")")
			}
			if kinds[ResolveHit] == 0 || kinds[ResolvePan] == 0 {
				t.Fatalf("sequence never exercised hit+pan paths: %v", kinds)
			}
		})
	}
}

// TestPyramidZoomInViaFinerLevel: drilling back into a previously visited
// finer level resolves by pan (or hit) — the event index is not consulted
// — and still matches scratch bit-identically; zooming back out resolves
// against the retained coarser level the same way.
func TestPyramidZoomInViaFinerLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tr := windowTrace(rng, 9, 900, 40)
	r, err := microscopic.NewReslicer(tr)
	if err != nil {
		t.Fatal(err)
	}
	const T = 16
	py := NewPyramid(r, Options{}, 4)
	m, err := r.Build(microscopic.Options{Slices: T})
	if err != nil {
		t.Fatal(err)
	}
	overview, _, err := py.Resolve(context.Background(), m.Slicer)
	if err != nil {
		t.Fatal(err)
	}
	// First drill: half the window — a new (finer) level, scratch.
	fine, kind, err := py.Zoom(context.Background(), overview, 0, T/2-1)
	if err != nil {
		t.Fatal(err)
	}
	if kind != ResolveScratch {
		t.Fatalf("first drill: kind %q, want scratch", kind)
	}
	// Back out to the overview: its level is resident — a hit.
	back, kind, err := py.Resolve(context.Background(), overview.Model.Slicer)
	if err != nil {
		t.Fatal(err)
	}
	if kind != ResolveHit || back != overview {
		t.Fatalf("zoom out: kind %q (same input: %v), want resident hit", kind, back == overview)
	}
	// Drill again one fine-slice over: same finer grid, pan-derived.
	again, kind, err := py.Resolve(context.Background(), fine.Model.Slicer.Shift(1))
	if err != nil {
		t.Fatal(err)
	}
	if kind != ResolvePan {
		t.Fatalf("re-drill: kind %q, want pan", kind)
	}
	requireInputsBitIdentical(t, again, mustInput(t, testBuildAt(t, r, again.Model.Slicer), Options{}), "re-drill")
}

// TestPyramidLevelCap: the ladder retains at most maxLevels levels,
// dropping the least recently used.
func TestPyramidLevelCap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := windowTrace(rng, 6, 400, 32)
	r, err := microscopic.NewReslicer(tr)
	if err != nil {
		t.Fatal(err)
	}
	py := NewPyramid(r, Options{}, 2)
	m, err := r.Build(microscopic.Options{Slices: 8})
	if err != nil {
		t.Fatal(err)
	}
	in, _, err := py.Resolve(context.Background(), m.Slicer)
	if err != nil {
		t.Fatal(err)
	}
	for _, rg := range [][2]int{{0, 3}, {0, 1}, {2, 5}} { // three more widths
		if _, _, err := py.Zoom(context.Background(), in, rg[0], rg[1]); err != nil {
			t.Fatal(err)
		}
	}
	if got := py.Levels(); got != 2 {
		t.Fatalf("ladder holds %d levels, cap is 2", got)
	}
	if py.MemoryBytes() <= 0 {
		t.Fatal("ladder reports no resident memory")
	}
	// The original level was dropped: resolving it again is a scratch.
	if _, kind, err := py.Resolve(context.Background(), m.Slicer); err != nil || kind != ResolveScratch {
		t.Fatalf("evicted level resolve: kind %q err %v, want scratch", kind, err)
	}
}

// TestPyramidConcurrentResolve: concurrent zooms and pans over one ladder
// are race-free and every result matches scratch (run under -race).
func TestPyramidConcurrentResolve(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tr := windowTrace(rng, 9, 600, 30)
	r, err := microscopic.NewReslicer(tr)
	if err != nil {
		t.Fatal(err)
	}
	const T = 10
	py := NewPyramid(r, Options{Workers: 2}, 4)
	m, err := r.Build(microscopic.Options{Slices: T})
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := py.Resolve(context.Background(), m.Slicer)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			in := base
			for i := 0; i < 6; i++ {
				var err error
				var got *Input
				if rng.Intn(2) == 0 {
					got, _, err = py.Zoom(context.Background(), in, 0, T/2-1)
				} else {
					got, _, err = py.Resolve(context.Background(), in.Model.Slicer.Shift(rng.Intn(5)-2))
				}
				if err != nil {
					t.Error(err)
					return
				}
				fresh := mustInput(t, testBuildAt(t, r, got.Model.Slicer), Options{Workers: 2})
				gotG, gotL := got.RootGainLoss()
				wantG, wantL := fresh.RootGainLoss()
				if gotG != wantG || gotL != wantL {
					t.Errorf("concurrent resolve diverged from scratch")
					return
				}
				in = got
			}
		}(int64(g) * 101)
	}
	wg.Wait()
}

// TestPyramidCancelledResolve: a cancelled context aborts the underlying
// build and leaves the ladder serviceable.
func TestPyramidCancelledResolve(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := windowTrace(rng, 6, 400, 20)
	r, err := microscopic.NewReslicer(tr)
	if err != nil {
		t.Fatal(err)
	}
	py := NewPyramid(r, Options{}, 4)
	m, err := r.Build(microscopic.Options{Slices: 10})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := py.Resolve(ctx, m.Slicer); err == nil {
		t.Fatal("cancelled resolve succeeded, want ctx error")
	}
	if got := py.Levels(); got != 0 {
		t.Fatalf("cancelled resolve left %d resident levels", got)
	}
	if in, kind, err := py.Resolve(context.Background(), m.Slicer); err != nil || in == nil || kind != ResolveScratch {
		t.Fatalf("post-cancel resolve: kind %q err %v", kind, err)
	}
}

// TestEstimateMemoryBytes: the arithmetic estimate equals MemoryBytes of
// a freshly built Input (empty solver pool) exactly — the admission
// guard's precondition.
func TestEstimateMemoryBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 4; trial++ {
		tr := windowTrace(rng, 4+rng.Intn(8), 300, 20)
		r, err := microscopic.NewReslicer(tr)
		if err != nil {
			t.Fatal(err)
		}
		T := 5 + rng.Intn(20)
		m, err := r.Build(microscopic.Options{Slices: T})
		if err != nil {
			t.Fatal(err)
		}
		in := mustInput(t, m, Options{})
		est := EstimateMemoryBytes(m.H.NumNodes(), m.NumStates(), T)
		if got := int64(in.MemoryBytes()); got != est {
			t.Fatalf("trial %d: estimate %d, fresh MemoryBytes %d", trial, est, got)
		}
	}
}

// TestPyramidZoomRejectsInvertedRange mirrors Input.Zoom's validation.
func TestPyramidZoomRejectsInvertedRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := windowTrace(rng, 4, 100, 10)
	r, err := microscopic.NewReslicer(tr)
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.Build(microscopic.Options{Slices: 8})
	if err != nil {
		t.Fatal(err)
	}
	py := NewPyramid(r, Options{}, 2)
	in, _, err := py.Resolve(context.Background(), m.Slicer)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := py.Zoom(context.Background(), in, 5, 2); err == nil {
		t.Fatal("inverted zoom range succeeded")
	}
}
