package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"ocelotl/internal/microscopic"
	"ocelotl/internal/mpisim"
)

// widerModel builds a model with enough nodes to exercise the worker pool.
func widerModel(t *testing.T, seed int64) *microscopic.Model {
	t.Helper()
	tr := mpisim.ArtificialSized(60, 24)
	m, err := microscopic.Build(tr, microscopic.Options{Slices: 24})
	if err != nil {
		t.Fatal(err)
	}
	// Add seeded noise so ties are rare and any ordering bug shows up as
	// a different partition.
	rng := rand.New(rand.NewSource(seed))
	for s := 0; s < m.NumResources(); s++ {
		for ti := 0; ti < m.NumSlices(); ti++ {
			m.AddD(0, s, ti, 0.02*rng.Float64())
		}
	}
	return m
}

// TestParallelMatchesSequential: any worker count must produce the exact
// same matrices and partitions as the sequential path.
func TestParallelMatchesSequential(t *testing.T) {
	ctx := context.Background()
	m := widerModel(t, 1)
	seq := mustInput(t, m, Options{Workers: 1})
	for _, workers := range []int{2, 4, 8, 0} {
		par := mustInput(t, m, Options{Workers: workers})
		// Input matrix arenas bit-identical.
		for c := range seq.gain {
			if seq.gain[c] != par.gain[c] || seq.loss[c] != par.loss[c] {
				t.Fatalf("workers=%d: arena cell %d differs", workers, c)
			}
		}
		for _, p := range []float64{0, 0.2, 0.5, 0.8, 1} {
			a, err := seq.NewSolver().RunContext(ctx, p)
			if err != nil {
				t.Fatal(err)
			}
			b, err := par.NewSolver().RunContext(ctx, p)
			if err != nil {
				t.Fatal(err)
			}
			if a.Signature() != b.Signature() {
				t.Fatalf("workers=%d p=%v: partitions differ", workers, p)
			}
			if math.Abs(a.PIC-b.PIC) > 0 {
				t.Fatalf("workers=%d p=%v: pIC %v vs %v", workers, p, a.PIC, b.PIC)
			}
		}
	}
}

// TestParallelRepeatedRuns exercises matrix reuse under the parallel path.
func TestParallelRepeatedRuns(t *testing.T) {
	ctx := context.Background()
	m := widerModel(t, 2)
	s := mustInput(t, m, Options{Workers: 4}).NewSolver()
	first, err := s.RunContext(ctx, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.RunContext(ctx, 0.9); err != nil {
			t.Fatal(err)
		}
		again, err := s.RunContext(ctx, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		if again.Signature() != first.Signature() {
			t.Fatalf("iteration %d: repeated RunContext(0.4) changed", i)
		}
	}
}

func BenchmarkInputPassWorkers1(b *testing.B) { benchInput(b, 1) }
func BenchmarkInputPassWorkers4(b *testing.B) { benchInput(b, 4) }

func benchInput(b *testing.B, workers int) {
	tr := mpisim.ArtificialSized(192, 48)
	m, err := microscopic.Build(tr, microscopic.Options{Slices: 48})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewInputContext(context.Background(), m, Options{Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunWorkers1(b *testing.B) { benchRun(b, 1) }
func BenchmarkRunWorkers4(b *testing.B) { benchRun(b, 4) }

func benchRun(b *testing.B, workers int) {
	ctx := context.Background()
	tr := mpisim.ArtificialSized(192, 48)
	m, err := microscopic.Build(tr, microscopic.Options{Slices: 48})
	if err != nil {
		b.Fatal(err)
	}
	in := mustInput(b, m, Options{Workers: workers})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := in.AcquireSolverContext(ctx)
		if err != nil {
			b.Fatal(err)
		}
		_, err = s.RunContext(ctx, 0.5)
		in.ReleaseSolver(s)
		if err != nil {
			b.Fatal(err)
		}
	}
}
