package analysis

import (
	"context"
	"strings"
	"testing"

	"ocelotl/internal/core"
	"ocelotl/internal/grid5000"
	"ocelotl/internal/hierarchy"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/mpisim"
	"ocelotl/internal/timeslice"
)

func caseAModel(t *testing.T) (*mpisim.Result, *microscopic.Model) {
	t.Helper()
	res, err := mpisim.GenerateCase(grid5000.CaseA, mpisim.Config{Seed: 9, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	m, err := microscopic.Build(res.Trace, microscopic.Options{Slices: 30})
	if err != nil {
		t.Fatal(err)
	}
	return res, m
}

func TestPhasesFindInitAndComputation(t *testing.T) {
	_, m := caseAModel(t)
	phases := Phases(m)
	if len(phases) < 2 {
		t.Fatalf("got %d phases", len(phases))
	}
	// First phase: MPI_Init from t=0.
	if phases[0].Mode != mpisim.StateInit || phases[0].Start != 0 {
		t.Errorf("first phase = %+v, want MPI_Init at 0", phases[0])
	}
	// Init ends around 1.6 s (17% of 9.5 s), slice-quantized.
	if phases[0].End < 1.0 || phases[0].End > 2.4 {
		t.Errorf("init phase ends at %g, want ≈1.6", phases[0].End)
	}
	// Phases tile the window.
	for i := 1; i < len(phases); i++ {
		if phases[i].FirstSlice != phases[i-1].LastSlice+1 {
			t.Errorf("phase gap between %+v and %+v", phases[i-1], phases[i])
		}
	}
	last := phases[len(phases)-1]
	if last.LastSlice != m.NumSlices()-1 {
		t.Errorf("last phase ends at slice %d, want %d", last.LastSlice, m.NumSlices()-1)
	}
}

func TestDeviatingResourcesFindsPerturbedRanks(t *testing.T) {
	ctx := context.Background()
	res, m := caseAModel(t)
	in := mustInput(t, m, core.Options{})
	pt, err := in.NewSolver().RunContext(ctx, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Perturbations[0]
	lo := m.Slicer.SliceOf(p.Start) - 1
	hi := m.Slicer.SliceOf(p.End) + 1
	devs := DeviatingResources(m, pt, lo, hi)
	// The perturbed ranks should be overrepresented among deviators.
	pert := map[string]bool{}
	for _, r := range p.Ranks {
		pert[res.Trace.Resources[r]] = true
	}
	hits := 0
	for _, d := range devs {
		if pert[d.Path] {
			hits++
		}
	}
	if len(devs) == 0 {
		t.Fatal("no deviating resources found around the perturbation")
	}
	if hits*2 < len(devs) {
		t.Errorf("only %d of %d deviators are truly perturbed", hits, len(devs))
	}
}

func TestSummarizeClustersCaseC(t *testing.T) {
	ctx := context.Background()
	res, err := mpisim.GenerateCase(grid5000.CaseC, mpisim.Config{Seed: 4, EventTarget: 250000})
	if err != nil {
		t.Fatal(err)
	}
	m, err := microscopic.Build(res.Trace, microscopic.Options{Slices: 30})
	if err != nil {
		t.Fatal(err)
	}
	in := mustInput(t, m, core.Options{})
	pt, err := in.NewSolver().RunContext(ctx, 0.35)
	if err != nil {
		t.Fatal(err)
	}
	sums := SummarizeClusters(in, pt, 2)
	if len(sums) != 3 {
		t.Fatalf("got %d clusters: %+v", len(sums), sums)
	}
	byName := map[string]ClusterSummary{}
	for _, c := range sums {
		byName[strings.TrimPrefix(c.Path, "nancy/")] = c
	}
	graphene, graphite := byName["graphene"], byName["graphite"]
	// The paper's Fig. 4 reading: Graphite (slow Ethernet, per-rank
	// heterogeneity) fragments into far more areas than Graphene.
	if graphite.Areas <= graphene.Areas {
		t.Errorf("graphite (%d areas) should fragment more than graphene (%d)", graphite.Areas, graphene.Areas)
	}
	if graphite.SpatiallyMerged {
		t.Error("graphite should be spatially separated")
	}
}

func TestDescribeAndFormat(t *testing.T) {
	ctx := context.Background()
	_, m := caseAModel(t)
	in := mustInput(t, m, core.Options{})
	pt, err := in.NewSolver().RunContext(ctx, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	rep := Describe(in, pt, 2)
	if rep.Areas != pt.NumAreas() {
		t.Errorf("report areas = %d", rep.Areas)
	}
	text := rep.Format(m.States)
	for _, want := range []string{"phases:", "MPI_Init", "areas"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
}

func TestDeviatingResourcesHomogeneous(t *testing.T) {
	ctx := context.Background()
	// A perfectly homogeneous model has no deviators.
	h, _ := hierarchy.FromPaths([]string{"c/a", "c/b", "c/c"})
	sl, _ := timeslice.New(0, 10, 10)
	m := microscopic.NewEmpty(h, sl, []string{"x"})
	for s := 0; s < 3; s++ {
		for ti := 0; ti < 10; ti++ {
			m.AddD(0, s, ti, 0.5)
		}
	}
	in := mustInput(t, m, core.Options{})
	pt, err := in.NewSolver().RunContext(ctx, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if devs := DeviatingResources(m, pt, 0, 9); len(devs) != 0 {
		t.Errorf("homogeneous model has deviators: %v", devs)
	}
}

func TestPhasesIdleModel(t *testing.T) {
	h, _ := hierarchy.FromPaths([]string{"c/a"})
	sl, _ := timeslice.New(0, 5, 5)
	m := microscopic.NewEmpty(h, sl, []string{"x"})
	phases := Phases(m)
	if len(phases) != 1 || phases[0].Mode != -1 {
		t.Errorf("idle model phases = %+v", phases)
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
