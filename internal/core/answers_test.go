package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"ocelotl/internal/partition"
)

// memoLen reports how many answers the Input's memo holds.
func memoLen(in *Input) int {
	in.answers.mu.Lock()
	defer in.answers.mu.Unlock()
	return len(in.answers.answers)
}

// freshRun solves p on a brand-new solver, outside the pool and the memo.
func freshRun(t *testing.T, in *Input, p float64) *partition.Partition {
	t.Helper()
	pt, err := in.NewSolver().RunContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

// TestSolveContextMatchesFreshSolve is the memo's property test: over
// random hierarchies, dimensions, data and normalization, a random p
// sequence with repeats is answered by SolveContext exactly as a fresh
// RunContext would answer it, and a p is a memo hit iff it was asked
// before.
func TestSolveContextMatchesFreshSolve(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := randomFusedModel(rng)
		for _, normalize := range []bool{false, true} {
			in := mustInput(t, m, Options{Normalize: normalize, Workers: 1 + rng.Intn(4)})
			pool := []float64{0, 1, rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
			seen := map[float64]bool{}
			for step := 0; step < 24; step++ {
				p := pool[rng.Intn(len(pool))]
				got, hit, err := in.SolveContext(ctx, p)
				if err != nil {
					t.Fatalf("seed %d normalize %v p=%v: %v", seed, normalize, p, err)
				}
				if hit != seen[p] {
					t.Fatalf("seed %d normalize %v p=%v: hit = %v, want %v", seed, normalize, p, hit, seen[p])
				}
				seen[p] = true
				if want := freshRun(t, in, p); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d normalize %v p=%v: memoized answer differs from a fresh solve", seed, normalize, p)
				}
			}
			if n := memoLen(in); n != len(seen) {
				t.Fatalf("seed %d normalize %v: memo holds %d answers for %d distinct ps", seed, normalize, n, len(seen))
			}
		}
	}
}

// TestSolveContextConcurrentSameP: goroutines racing on one p all get an
// answer equal to a fresh solve, and the memo keeps exactly one of them.
func TestSolveContextConcurrentSameP(t *testing.T) {
	in := mustInput(t, randomFusedModel(rand.New(rand.NewSource(7))), Options{Workers: 4, SolverPoolBound: 2})
	const n = 16
	got := make([]*partition.Partition, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g], _, errs[g] = in.SolveContext(context.Background(), 0.4)
		}(g)
	}
	wg.Wait()
	want := freshRun(t, in, 0.4)
	for g := range got {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if !reflect.DeepEqual(got[g], want) {
			t.Fatalf("goroutine %d got a different answer", g)
		}
	}
	if n := memoLen(in); n != 1 {
		t.Fatalf("memo holds %d answers for one p", n)
	}
}

// TestSolveContextCancelledStoresNothing: a solve that dies on its
// context — already dead, or cancelled mid-run — returns the
// cancellation and leaves no memo entry; the next live call solves.
func TestSolveContextCancelledStoresNothing(t *testing.T) {
	in := cancelTestInput(t, Options{Workers: 2})
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	for _, ctx := range []context.Context{dead, newCancelAfterChecks(3)} {
		pt, hit, err := in.SolveContext(ctx, 0.5)
		if !errors.Is(err, context.Canceled) || pt != nil || hit {
			t.Fatalf("SolveContext(cancelled) = (%v, %v, %v), want (nil, false, context.Canceled)", pt, hit, err)
		}
		if n := memoLen(in); n != 0 {
			t.Fatalf("cancelled solve left %d memo entries", n)
		}
	}
	if _, hit, err := in.SolveContext(context.Background(), 0.5); err != nil || hit {
		t.Fatalf("live solve after cancellations: hit %v err %v, want a fresh solve", hit, err)
	}
}

// TestSolveContextRejectsBadP: an invalid p fails validation before the
// memo is consulted — even a stored entry under its bits is never served.
func TestSolveContextRejectsBadP(t *testing.T) {
	in := mustInput(t, randomFusedModel(rand.New(rand.NewSource(3))), Options{Workers: 1})
	planted, _, err := in.SolveContext(context.Background(), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{math.NaN(), -0.1, 1.5, math.Inf(1), math.Inf(-1)} {
		in.answers.store(math.Float64bits(p), planted)
		if pt, hit, err := in.SolveContext(context.Background(), p); err == nil || pt != nil || hit {
			t.Errorf("SolveContext(%v) = (%v, %v, %v), want a validation error", p, pt, hit, err)
		}
	}
}

// TestSolveContextMemoryBytes: every stored answer adds exactly its size
// to MemoryBytes, repeats add nothing, and the memo stops growing at its
// cap while still answering new ps.
func TestSolveContextMemoryBytes(t *testing.T) {
	ctx := context.Background()
	in := mustInput(t, randomFusedModel(rand.New(rand.NewSource(11))), Options{Workers: 1})
	if _, _, err := in.SolveContext(ctx, 0); err != nil { // warms the one-solver pool
		t.Fatal(err)
	}
	for i := 1; i < maxAnswers+8; i++ {
		p := float64(i) / 64
		before := in.MemoryBytes()
		pt, hit, err := in.SolveContext(ctx, p)
		if err != nil || hit {
			t.Fatalf("p=%v: hit %v err %v, want a fresh solve", p, hit, err)
		}
		grew := int64(in.MemoryBytes() - before)
		switch {
		case i < maxAnswers && (grew != answerBytes(pt) || grew <= 0):
			t.Fatalf("answer %d: MemoryBytes grew by %d, want its size %d", i, grew, answerBytes(pt))
		case i >= maxAnswers && grew != 0:
			t.Fatalf("answer %d past the cap: MemoryBytes grew by %d", i, grew)
		}
		if _, hit, _ := in.SolveContext(ctx, p); hit != (i < maxAnswers) {
			t.Fatalf("repeat of p=%v: hit %v", p, hit)
		}
		if after := in.MemoryBytes(); int64(after-before) != grew {
			t.Fatalf("repeat of p=%v changed MemoryBytes", p)
		}
	}
	if n := memoLen(in); n != maxAnswers {
		t.Fatalf("memo holds %d answers, want the cap %d", n, maxAnswers)
	}
}
