package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"ocelotl/internal/microscopic"
	"ocelotl/internal/mpisim"
	"ocelotl/internal/testutil"
)

func poolTestInput(t *testing.T, opt Options) *Input {
	t.Helper()
	m, err := microscopic.Build(mpisim.ArtificialSized(8, 10), microscopic.Options{Slices: 10})
	if err != nil {
		t.Fatal(err)
	}
	return mustInput(t, m, opt)
}

func TestSolverPoolBoundDefaultsToWorkers(t *testing.T) {
	in := poolTestInput(t, Options{Workers: 3})
	if got := in.SolverPoolBound(); got != 3 {
		t.Fatalf("default pool bound = %d, want the worker count 3", got)
	}
	in = poolTestInput(t, Options{Workers: 3, SolverPoolBound: 7})
	if got := in.SolverPoolBound(); got != 7 {
		t.Fatalf("explicit pool bound = %d, want 7", got)
	}
}

// TestSolverPoolBlocksAtBound acquires the full bound, checks that one
// more acquire blocks, and that releasing unblocks it — the memory-cap
// contract: at most bound solvers' scratch ever exists.
func TestSolverPoolBlocksAtBound(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	ctx := context.Background()
	in := poolTestInput(t, Options{Workers: 1, SolverPoolBound: 2})
	s1, err1 := in.AcquireSolverContext(ctx)
	s2, err2 := in.AcquireSolverContext(ctx)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if s1 == s2 {
		t.Fatal("pool handed out the same solver twice")
	}
	acquired := make(chan *Solver)
	go func() {
		// A background context never cancels, so the wait can only end
		// with a solver.
		s, _ := in.AcquireSolverContext(ctx)
		acquired <- s
	}()
	select {
	case <-acquired:
		t.Fatal("third acquire succeeded with bound 2 and both solvers in flight")
	case <-time.After(50 * time.Millisecond):
	}
	in.ReleaseSolver(s1)
	select {
	case s3 := <-acquired:
		if s3 != s1 {
			t.Fatalf("unblocked acquire got a new solver, want the released one")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("acquire still blocked after release")
	}
	in.ReleaseSolver(s2)
}

// TestSolverPoolBoundSurvivesUpdate checks the bound propagates through
// the incremental-derivation path.
func TestSolverPoolBoundSurvivesUpdate(t *testing.T) {
	ctx := context.Background()
	tr := mpisim.ArtificialSized(8, 20)
	r, err := microscopic.NewReslicer(tr)
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.Build(microscopic.Options{Slices: 10})
	if err != nil {
		t.Fatal(err)
	}
	in := mustInput(t, m, Options{SolverPoolBound: 5})
	next, err := in.AdvanceContext(ctx, in.Model.Reslicer(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := next.SolverPoolBound(); got != 5 {
		t.Fatalf("pool bound after Pan = %d, want 5", got)
	}
}

// TestSolverPoolUnderChurn runs far more concurrent queries than the
// bound allows; everything must complete (no deadlock, no lost wakeups)
// and answers must match the sequential result.
func TestSolverPoolUnderChurn(t *testing.T) {
	ctx := context.Background()
	testutil.VerifyNoLeaks(t)
	in := poolTestInput(t, Options{Workers: 2, SolverPoolBound: 2})
	want, err := in.NewSolver().RunContext(ctx, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				s, err := in.AcquireSolverContext(ctx)
				if err != nil {
					errs <- err
					return
				}
				pt, err := s.RunContext(ctx, 0.5)
				in.ReleaseSolver(s)
				if err != nil {
					errs <- err
					return
				}
				if pt.Signature() != want.Signature() {
					errs <- errSignature
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errSignature = &signatureError{}

type signatureError struct{}

func (*signatureError) Error() string { return "pooled solver returned a different partition" }

func TestInputMemoryBytes(t *testing.T) {
	in := poolTestInput(t, Options{Workers: 1})
	got := in.MemoryBytes()
	// The two triangles alone are 2·nodes·T(T+1)/2 floats.
	if min := 2 * in.InputCells() * 8; got < min {
		t.Fatalf("MemoryBytes() = %d, want ≥ %d (the gain/loss arenas)", got, min)
	}
}
