package core

import (
	"context"
	"math"
	"sync"
	"testing"

	"ocelotl/internal/measures"
)

// sequentialReference solves every p on one sequential Solver and records
// the exact results.
func sequentialReference(t *testing.T, in *Input, ps []float64) map[float64][4]interface{} {
	ctx := context.Background()
	t.Helper()
	ref := make(map[float64][4]interface{}, len(ps))
	s := in.NewSolver()
	s.Workers = 1
	for _, p := range ps {
		pt, err := s.RunContext(ctx, p)
		if err != nil {
			t.Fatalf("sequential Run(%v): %v", p, err)
		}
		ref[p] = [4]interface{}{pt.Signature(), pt.Gain, pt.Loss, pt.PIC}
	}
	return ref
}

// TestConcurrentSolversMatchSequential is the refactor's core guarantee:
// N goroutines, each with its own Solver, running distinct p values
// against one shared Input produce partitions bit-identical (signature,
// gain, loss, pIC) to a sequential pass. Run with -race to prove the
// Input is never written after construction.
func TestConcurrentSolversMatchSequential(t *testing.T) {
	ctx := context.Background()
	m := widerModel(t, 5)
	in := mustInput(t, m, Options{})
	ps := []float64{0, 0.05, 0.15, 0.3, 0.45, 0.6, 0.75, 0.85, 0.95, 1}
	if len(ps) < 8 {
		t.Fatalf("need at least 8 concurrent queries, have %d", len(ps))
	}
	ref := sequentialReference(t, in, ps)

	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		errs := make([]error, len(ps))
		got := make([][4]interface{}, len(ps))
		for i, p := range ps {
			wg.Add(1)
			go func(i int, p float64) {
				defer wg.Done()
				pt, err := in.NewSolver().RunContext(ctx, p)
				if err != nil {
					errs[i] = err
					return
				}
				got[i] = [4]interface{}{pt.Signature(), pt.Gain, pt.Loss, pt.PIC}
			}(i, p)
		}
		wg.Wait()
		for i, p := range ps {
			if errs[i] != nil {
				t.Fatalf("round %d concurrent Run(%v): %v", round, p, errs[i])
			}
			if got[i] != ref[p] {
				t.Errorf("round %d p=%v: concurrent result differs from sequential\n got %v\nwant %v",
					round, p, got[i], ref[p])
			}
		}
	}
}

// TestSolverReuseAcrossPs: one Solver answering many p values in sequence
// (scratch reuse) matches fresh Solvers per query.
func TestSolverReuseAcrossPs(t *testing.T) {
	ctx := context.Background()
	m := widerModel(t, 6)
	in := mustInput(t, m, Options{Workers: 1})
	ps := []float64{0.9, 0.1, 0.5, 0.1, 0.9, 0.3}
	reused := in.NewSolver()
	for _, p := range ps {
		a, err := reused.RunContext(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := in.NewSolver().RunContext(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		if a.Signature() != b.Signature() || a.PIC != b.PIC {
			t.Errorf("p=%v: reused solver diverges from fresh solver", p)
		}
	}
}

// TestSweepRunMatchesSequential: the parallel sweep returns, in order, the
// exact partitions of a sequential pass.
func TestSweepRunMatchesSequential(t *testing.T) {
	ctx := context.Background()
	m := widerModel(t, 7)
	in := mustInput(t, m, Options{Workers: 8})
	ps := []float64{0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1}
	ref := sequentialReference(t, in, ps)
	pts, err := in.SweepRunContext(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range ps {
		got := [4]interface{}{pts[i].Signature(), pts[i].Gain, pts[i].Loss, pts[i].PIC}
		if got != ref[p] {
			t.Errorf("p=%v: sweep result differs from sequential", p)
		}
	}
	if _, err := in.SweepRunContext(ctx, []float64{0.5, 2}); err == nil {
		t.Error("SweepRunContext accepted p out of range")
	}
}

// TestSweepQualityMatchesQuality: the parallel quality sweep returns, in
// order, exactly what per-p Quality calls report.
func TestSweepQualityMatchesQuality(t *testing.T) {
	ctx := context.Background()
	m := widerModel(t, 10)
	in := mustInput(t, m, Options{Workers: 4})
	ps := []float64{0, 0.2, 0.4, 0.6, 0.8, 1}
	qs, err := in.SweepQualityContext(ctx, ps)
	if err != nil {
		t.Fatal(err)
	}
	s := in.NewSolver()
	s.Workers = 1
	for i, p := range ps {
		want, err := s.QualityContext(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		if qs[i] != want {
			t.Errorf("p=%v: sweep quality %+v, sequential %+v", p, qs[i], want)
		}
	}
	if _, err := in.SweepQualityContext(ctx, []float64{-1}); err == nil {
		t.Error("SweepQualityContext accepted p out of range")
	}
}

// TestSignificantPsParallelMatchesSequential is the regression guard for
// the parallelized dichotomy: the returned point set (p values,
// signatures, measures) must be exactly the sequential exploration's.
func TestSignificantPsParallelMatchesSequential(t *testing.T) {
	ctx := context.Background()
	m := widerModel(t, 8)
	seq := mustInput(t, m, Options{Workers: 1})
	par := mustInput(t, m, Options{Workers: 8})
	a, err := seq.SignificantPsContext(ctx, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := par.SignificantPsContext(ctx, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) < 2 {
		t.Fatalf("only %d significant points; model too trivial for the regression", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("point count differs: sequential %d, parallel %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("point %d differs:\nsequential %+v\nparallel   %+v", i, a[i], b[i])
		}
	}
}

// TestPooledSolversConcurrentRuns: queries that each borrow a solver from
// the Input's pool may run concurrently and agree with the sequential
// answers.
func TestPooledSolversConcurrentRuns(t *testing.T) {
	ctx := context.Background()
	m := widerModel(t, 9)
	in := mustInput(t, m, Options{})
	ps := []float64{0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.8, 0.9}
	ref := sequentialReference(t, in, ps)
	var wg sync.WaitGroup
	for _, p := range ps {
		wg.Add(1)
		go func(p float64) {
			defer wg.Done()
			s, err := in.AcquireSolverContext(ctx)
			if err != nil {
				t.Errorf("AcquireSolverContext: %v", err)
				return
			}
			defer in.ReleaseSolver(s)
			pt, err := s.RunContext(ctx, p)
			if err != nil {
				t.Errorf("RunContext(%v): %v", p, err)
				return
			}
			if got := [4]interface{}{pt.Signature(), pt.Gain, pt.Loss, pt.PIC}; got != ref[p] {
				t.Errorf("p=%v: pooled concurrent result differs from sequential", p)
			}
		}(p)
	}
	wg.Wait()
}

// TestImproveThrMatchesImproves guards the hoisted threshold both DP
// kernels compare against: for finite values, v > improveThr(best) must
// decide exactly as measures.Improves(v, best) — at signed zeros,
// subnormals, the edges of the float range, and one ulp either side of
// the threshold itself.
func TestImproveThrMatchesImproves(t *testing.T) {
	sub := math.SmallestNonzeroFloat64
	edges := []float64{0, math.Copysign(0, -1), sub, -sub, 2.2250738585072e-308, 1e-300,
		-1e-300, 1e-12, 0.5, -0.5, 1, -1, 1e15, -1e15, 1e308, -1e308, math.MaxFloat64 / 2}
	for _, best := range edges {
		thr := improveThr(best)
		if math.IsInf(thr, 0) || math.IsNaN(thr) {
			t.Fatalf("improveThr(%v) = %v, want finite", best, thr)
		}
		above, below := math.Nextafter(thr, math.Inf(1)), math.Nextafter(thr, math.Inf(-1))
		if !measures.Improves(above, best) || measures.Improves(thr, best) {
			t.Errorf("best %v: one ulp above the threshold must improve, the threshold itself must not", best)
		}
		for _, v := range append([]float64{thr, above, below, best}, edges...) {
			if got, want := v > thr, measures.Improves(v, best); got != want {
				t.Errorf("v=%v best=%v: v > improveThr(best) = %v, Improves = %v", v, best, got, want)
			}
		}
	}
}
