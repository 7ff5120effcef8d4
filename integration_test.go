// End-to-end integration tests over the public pipeline: simulate → encode
// → decode → model → aggregate → render → analyze, across formats and
// algorithms. These are the tests a downstream user's workflow relies on.
package ocelotl

import (
	"bytes"
	"context"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"ocelotl/internal/analysis"
	"ocelotl/internal/core"
	"ocelotl/internal/grid5000"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/mpisim"
	"ocelotl/internal/product"
	"ocelotl/internal/render"
	"ocelotl/internal/traceio"
)

// TestPipelineCaseA is the §V.A workflow: every stage chained, every
// finding asserted.
func TestPipelineCaseA(t *testing.T) {
	ctx := context.Background()
	res, err := mpisim.GenerateCase(grid5000.CaseA, mpisim.Config{Seed: 9, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	// Persist and reload through each format.
	for _, name := range []string{"a.bin", "a.csv", "a.bin.gz"} {
		path := filepath.Join(t.TempDir(), name)
		if err := traceio.WriteFile(path, res.Trace); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r, err := traceio.OpenFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m, err := microscopic.BuildStream(r, microscopic.Options{Slices: 30})
		r.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		in := mustInput(t, m, core.Options{})
		pt, err := in.NewSolver().RunContext(ctx, 0.2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := pt.Validate(m.H, 30); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The perturbation must be found regardless of the format the
		// trace traveled through.
		gt := res.Perturbations[0]
		devs := analysis.DeviatingResources(m, pt,
			m.Slicer.SliceOf(gt.Start)-1, m.Slicer.SliceOf(gt.End)+1)
		if len(devs) < len(gt.Ranks)/2 {
			t.Errorf("%s: only %d deviators for %d perturbed ranks", name, len(devs), len(gt.Ranks))
		}
		// And the rendering must carry every aggregate.
		scene := render.BuildScene(in, pt, render.Options{Width: 800, Height: 512})
		if scene.DataAggregates+scene.HiddenAggregates != pt.NumAreas() {
			t.Errorf("%s: scene accounts %d+%d of %d areas", name,
				scene.DataAggregates, scene.HiddenAggregates, pt.NumAreas())
		}
		var svg bytes.Buffer
		if err := scene.SVG(&svg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(svg.String(), "</svg>") {
			t.Errorf("%s: truncated SVG", name)
		}
	}
}

// TestFormatsProduceIdenticalModels: a trace read back from CSV and from
// binary must yield bit-identical microscopic models (both codecs encode
// float64 losslessly).
func TestFormatsProduceIdenticalModels(t *testing.T) {
	res, err := mpisim.GenerateCase(grid5000.CaseA, mpisim.Config{Seed: 3, EventTarget: 20000})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	models := make([]*microscopic.Model, 0, 2)
	for _, name := range []string{"t.csv", "t.bin"} {
		path := filepath.Join(dir, name)
		if err := traceio.WriteFile(path, res.Trace); err != nil {
			t.Fatal(err)
		}
		r, err := traceio.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		m, err := microscopic.BuildStream(r, microscopic.Options{Slices: 30})
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	a, b := models[0], models[1]
	for x := 0; x < a.NumStates(); x++ {
		for s := 0; s < a.NumResources(); s++ {
			for ti := 0; ti < 30; ti++ {
				if a.D(x, s, ti) != b.D(x, s, ti) {
					t.Fatalf("models differ at (%d,%d,%d)", x, s, ti)
				}
			}
		}
	}
	// Consequently the partitions agree exactly.
	pa, err := mustInput(t, a, core.Options{}).NewSolver().RunContext(context.Background(), 0.35)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := mustInput(t, b, core.Options{}).NewSolver().RunContext(context.Background(), 0.35)
	if err != nil {
		t.Fatal(err)
	}
	if pa.Signature() != pb.Signature() {
		t.Error("partitions differ across formats")
	}
}

// TestAllAlgorithmsOnAllCases: the four algorithms produce valid
// partitions on every Table II case, and the spatiotemporal optimum
// dominates the product baseline.
func TestAllAlgorithmsOnAllCases(t *testing.T) {
	ctx := context.Background()
	for _, c := range grid5000.AllCases() {
		res, err := mpisim.GenerateCase(c, mpisim.Config{Seed: 1, EventTarget: 40000})
		if err != nil {
			t.Fatalf("case %s: %v", c, err)
		}
		m, err := microscopic.Build(res.Trace, microscopic.Options{Slices: 30})
		if err != nil {
			t.Fatalf("case %s: %v", c, err)
		}
		in := mustInput(t, m, core.Options{})
		st, err := in.NewSolver().RunContext(ctx, 0.5)
		if err != nil {
			t.Fatalf("case %s st: %v", c, err)
		}
		pr, err := product.New(m).Evaluate(in, 0.5)
		if err != nil {
			t.Fatalf("case %s product: %v", c, err)
		}
		if err := st.Validate(m.H, 30); err != nil {
			t.Errorf("case %s st: %v", c, err)
		}
		if err := pr.Validate(m.H, 30); err != nil {
			t.Errorf("case %s product: %v", c, err)
		}
		if st.PIC < pr.PIC-1e-9*(1+math.Abs(pr.PIC)) {
			t.Errorf("case %s: core pIC %.6f < product %.6f", c, st.PIC, pr.PIC)
		}
	}
}

// TestSliderWorkflow mimics the analyst's interaction: load once, sweep p,
// every partition valid, detail monotone at the endpoints.
func TestSliderWorkflow(t *testing.T) {
	ctx := context.Background()
	res, err := mpisim.GenerateCase(grid5000.CaseB, mpisim.Config{Seed: 2, EventTarget: 60000})
	if err != nil {
		t.Fatal(err)
	}
	m, err := microscopic.Build(res.Trace, microscopic.Options{Slices: 30})
	if err != nil {
		t.Fatal(err)
	}
	in := mustInput(t, m, core.Options{})
	points, err := in.SignificantPsContext(ctx, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 3 {
		t.Fatalf("only %d slider stops on a 512-process trace", len(points))
	}
	for _, q := range points {
		pt, err := in.NewSolver().RunContext(ctx, q.P)
		if err != nil {
			t.Fatal(err)
		}
		if err := pt.Validate(m.H, 30); err != nil {
			t.Fatalf("p=%v: %v", q.P, err)
		}
		if pt.NumAreas() != q.Areas {
			t.Errorf("p=%v: re-run gives %d areas, point said %d", q.P, pt.NumAreas(), q.Areas)
		}
	}
	if points[0].Areas <= points[len(points)-1].Areas {
		t.Error("first stop should be more detailed than the last")
	}
}

// TestGanttVsOverviewContrast quantifies the paper's core claim on one
// trace: the Gantt chart cannot draw most events, while the aggregated
// overview fits the entity budget with bounded information loss.
func TestGanttVsOverviewContrast(t *testing.T) {
	ctx := context.Background()
	res, err := mpisim.GenerateCase(grid5000.CaseA, mpisim.Config{Seed: 5, EventTarget: 150000})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := render.Gantt(res.Trace, 1200, 512, nil, nil)
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
	if stats.SubPixel < stats.Events/2 {
		t.Errorf("Gantt not cluttered: %d of %d sub-pixel", stats.SubPixel, stats.Events)
	}
	if pt.NumAreas() > 512 {
		t.Errorf("overview exceeds entity budget: %d areas", pt.NumAreas())
	}
	rootGain, _ := in.RootGainLoss()
	if pt.Gain < 0.5*rootGain {
		t.Errorf("overview reduction too weak: gain %.1f of %.1f", pt.Gain, rootGain)
	}
}
