package product

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"ocelotl/internal/core"
	"ocelotl/internal/hierarchy"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/timeslice"
)

func randomModel(t *testing.T, seed int64, T int) *microscopic.Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	h, err := hierarchy.FromPaths([]string{"A/a0", "A/a1", "B/b0", "B/b1"})
	if err != nil {
		t.Fatal(err)
	}
	sl, _ := timeslice.New(0, float64(T), T)
	m := microscopic.NewEmpty(h, sl, []string{"u", "v"})
	for s := 0; s < 4; s++ {
		for ti := 0; ti < T; ti++ {
			a := rng.Float64()
			m.AddD(0, s, ti, a)
			m.AddD(1, s, ti, rng.Float64()*(1-a))
		}
	}
	return m
}

func TestProductPartitionIsValid(t *testing.T) {
	m := randomModel(t, 1, 6)
	agg := New(m)
	for _, p := range []float64{0, 0.3, 0.7, 1} {
		pt, err := agg.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := pt.Validate(m.H, m.NumSlices()); err != nil {
			t.Errorf("p=%v: invalid product partition: %v", p, err)
		}
	}
}

func TestProductIsCartesian(t *testing.T) {
	m := randomModel(t, 2, 5)
	agg := New(m)
	nodes, err := agg.Spatial.Nodes(0.5)
	if err != nil {
		t.Fatal(err)
	}
	ivs, err := agg.Temporal.Intervals(0.5)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := agg.Run(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(pt.Areas), len(nodes)*len(ivs); got != want {
		t.Errorf("|P(S×T)| = %d, want |P(S)|·|P(T)| = %d", got, want)
	}
}

// TestCoreDominatesProduct verifies the paper's §III.D claim: the true
// spatiotemporal optimum achieves a criterion at least as good as the
// product of the two unidimensional optima, at every p.
func TestCoreDominatesProduct(t *testing.T) {
	ctx := context.Background()
	for seed := int64(0); seed < 5; seed++ {
		m := randomModel(t, seed, 6)
		ca := mustInput(t, m, core.Options{})
		pa := New(m)
		for _, p := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1} {
			prodPt, err := pa.Evaluate(ca, p)
			if err != nil {
				t.Fatal(err)
			}
			corePt, err := ca.NewSolver().RunContext(ctx, p)
			if err != nil {
				t.Fatal(err)
			}
			if corePt.PIC < prodPt.PIC-1e-9*(1+math.Abs(prodPt.PIC)) {
				t.Errorf("seed %d p=%v: core pIC %.9f < product pIC %.9f", seed, p, corePt.PIC, prodPt.PIC)
			}
		}
	}
}

// TestCoreStrictlyBeatsProductOnCrossPattern builds the paper's motivating
// pattern (Fig. 3.d): a trace whose structure cannot be expressed as a
// Cartesian product. The core algorithm must strictly beat the baseline.
func TestCoreStrictlyBeatsProductOnCrossPattern(t *testing.T) {
	ctx := context.Background()
	h, _ := hierarchy.FromPaths([]string{"A/a0", "A/a1", "B/b0", "B/b1"})
	sl, _ := timeslice.New(0, 4, 4)
	m := microscopic.NewEmpty(h, sl, []string{"u"})
	// Cluster A: homogeneous in space, phase change at t=2.
	// Cluster B: constant in time, but differs per resource.
	for ti := 0; ti < 4; ti++ {
		v := 0.2
		if ti >= 2 {
			v = 0.8
		}
		m.AddD(0, 0, ti, v)
		m.AddD(0, 1, ti, v)
		m.AddD(0, 2, ti, 0.35)
		m.AddD(0, 3, ti, 0.65)
	}
	ca := mustInput(t, m, core.Options{})
	pa := New(m)
	p := 0.45
	prodPt, err := pa.Evaluate(ca, p)
	if err != nil {
		t.Fatal(err)
	}
	corePt, err := ca.NewSolver().RunContext(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if !(corePt.PIC > prodPt.PIC+1e-9) {
		t.Errorf("core pIC %.9f does not strictly beat product %.9f on a cross pattern", corePt.PIC, prodPt.PIC)
	}
	// The optimal partition here needs genuinely spatiotemporal areas:
	// cluster A cut in time, cluster B cut in space.
	if corePt.NumAreas() >= prodPt.NumAreas() && corePt.Loss >= prodPt.Loss {
		t.Errorf("core partition (areas=%d, loss=%g) not better shaped than product (areas=%d, loss=%g)",
			corePt.NumAreas(), corePt.Loss, prodPt.NumAreas(), prodPt.Loss)
	}
}

func TestEvaluatePopulatesMeasures(t *testing.T) {
	m := randomModel(t, 7, 4)
	ca := mustInput(t, m, core.Options{})
	pt, err := New(m).Evaluate(ca, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if pt.Gain == 0 && pt.Loss == 0 {
		t.Error("Evaluate left gain/loss empty on a random model")
	}
	wantPIC := 0.5*pt.Gain - 0.5*pt.Loss
	if math.Abs(pt.PIC-wantPIC) > 1e-9 {
		t.Errorf("PIC = %g, want %g", pt.PIC, wantPIC)
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	m := randomModel(t, 8, 3)
	if _, err := New(m).Run(math.NaN()); err == nil {
		t.Error("NaN p accepted")
	}
}

// mustInput runs the input pass under a background context, failing the
// test on error.
func mustInput(tb testing.TB, m *microscopic.Model, opt core.Options) *core.Input {
	tb.Helper()
	in, err := core.NewInputContext(context.Background(), m, opt)
	if err != nil {
		tb.Fatal(err)
	}
	return in
}
