package experiments

import (
	"os"

	"ocelotl/internal/analysis"
	"ocelotl/internal/core"
	"ocelotl/internal/grid5000"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/mpisim"
	"ocelotl/internal/partition"
	"ocelotl/internal/product"
	"ocelotl/internal/render"
	"ocelotl/internal/spatial"
	"ocelotl/internal/temporal"
)

// runTable1 prints the Table I criteria row for this implementation and
// verifies the checkable criteria programmatically on the artificial
// trace: G1 via the visual-aggregation entity budget, G4 via the
// diagonal/cross marks, G5 via the exposed gain/loss, M1/M2 by
// construction of the spatiotemporal algorithm.
func RunTable1(cfg Config) error {
	m, err := microscopic.Build(mpisim.Artificial(), microscopic.Options{Slices: 20})
	if err != nil {
		return err
	}
	in, err := core.NewInputContext(cfg.context(), m, core.Options{})
	if err != nil {
		return err
	}
	pt, err := in.NewSolver().RunContext(cfg.context(), 0.35)
	if err != nil {
		return err
	}
	// Check G1: at a tiny vertical budget the scene must not exceed the
	// entity budget (≤ one rect per threshold band per slice).
	sc := render.BuildScene(in, pt, render.Options{Width: 400, Height: 24, MinHeight: 4})
	budget := (24/4 + 1) * m.NumSlices()
	g1 := len(sc.Rects) <= budget
	// Check G4: visual aggregates all marked.
	g4 := true
	for _, r := range sc.Rects {
		if r.Visual == (r.Mark == render.MarkNone) {
			g4 = false
		}
	}
	// Check G5: the partition reports its information loss.
	g5 := pt.Loss >= 0 && pt.Gain != 0

	cfg.println("Table I row — Timeline, Information aggregation (⋆, ◦): Ocelotl (this implementation)")
	cfg.printf("  G1 entity budget        %s (scene rects %d ≤ budget %d at 24 px)\n", checkmark(g1), len(sc.Rects), budget)
	cfg.printf("  G2 visual summary       • (mode color + α-opacity per aggregate)\n")
	cfg.printf("  G3 visual simplicity    • (plain rectangles)\n")
	cfg.printf("  G4 discriminability     %s (diagonal/cross marks on visual aggregates)\n", checkmark(g4))
	cfg.printf("  G5 fidelity             %s (gain %.2f / loss %.2f bits exposed to the user)\n", checkmark(g5), pt.Gain, pt.Loss)
	cfg.printf("  G6 interpretability     • (aggregates = homogeneous spatiotemporal areas)\n")
	cfg.printf("  M1 spatiotemporal repr. • (both axes drawn)\n")
	cfg.printf("  M2 aggregation coherence• (single criterion over H(S)×I(T))\n")
	return nil
}

func checkmark(ok bool) string {
	if ok {
		return "•"
	}
	return "✗ FAILED"
}

// runFig3 reproduces Figure 3: the artificial trace's aggregation ladder —
// the fixed partition of Fig. 3.b, the product baseline of Fig. 3.c, the
// optimal spatiotemporal partitions at two p values (Figs. 3.d/3.e), and
// the visual aggregation of Fig. 3.f.
func RunFig3(cfg Config) error {
	tr := mpisim.Artificial()
	m, err := microscopic.Build(tr, microscopic.Options{Slices: 20})
	if err != nil {
		return err
	}
	in, err := core.NewInputContext(cfg.context(), m, core.Options{})
	if err != nil {
		return err
	}

	// 3.b: the naive fixed partition (3 clusters × 4 five-slice periods).
	fixed := fixedPartition(m)
	fg, fl, _ := in.EvaluatePartition(fixed, 0.5)
	cfg.printf("3.b fixed 3×4 grid:          %3d areas, gain %7.2f, loss %7.2f\n", fixed.NumAreas(), fg, fl)

	// 3.c: product of the two 1-D optima.
	pa := product.New(m)
	prodPt, err := pa.Evaluate(in, 0.5)
	if err != nil {
		return err
	}
	cfg.printf("3.c product of 1-D optima:   %3d areas, gain %7.2f, loss %7.2f\n", prodPt.NumAreas(), prodPt.Gain, prodPt.Loss)
	sp, _ := spatial.New(m).Run(0.5)
	tp, _ := temporal.New(m).Run(0.5)
	cfg.printf("    (spatial-only %d nodes × temporal-only %d intervals)\n", sp.NumAreas(), tp.NumAreas())

	// 3.d/3.e: the optimal spatiotemporal partitions at two significant
	// p values (the paper shows 56 then 15 areas; exact counts depend on
	// the synthetic data, the ordering is the reproduced shape).
	points, err := in.SignificantPsContext(cfg.context(), 1e-3)
	if err != nil {
		return err
	}
	cfg.printf("significant p values: %d distinct partitions\n", len(points))
	pd, pe := pickFigPs(points)
	// The two sampled granularities are independent queries; solve them
	// concurrently against the shared input.
	figPts, err := in.SweepRunContext(cfg.context(), []float64{pd, pe})
	if err != nil {
		return err
	}
	lo, hi := figPts[0], figPts[1]
	cfg.printf("3.d optimal at p=%.3f:       %3d areas, gain %7.2f, loss %7.2f (paper: 56 areas)\n", pd, lo.NumAreas(), lo.Gain, lo.Loss)
	cfg.printf("3.e optimal at p=%.3f:       %3d areas, gain %7.2f, loss %7.2f (paper: 15 areas)\n", pe, hi.NumAreas(), hi.Gain, hi.Loss)
	cg, cl, _ := in.EvaluatePartition(lo, 0.5)
	if cg-cl <= fg-fl {
		cfg.println("    WARNING: optimal partition does not dominate the fixed grid")
	}

	// 3.f: visual aggregation of 3.d on a small canvas.
	sc := render.BuildScene(in, lo, render.Options{Width: 480, Height: 36, MinHeight: 6})
	cfg.printf("3.f visual aggregation:      %3d data + %d visual aggregates (paper: 21 + 7)\n",
		sc.DataAggregates, sc.VisualAggregates)

	// Render 3.d and 3.e as SVGs.
	if err := writeSVG(in, lo, cfg.artifact("fig3d.svg"), render.Options{Width: 600, Height: 360}); err != nil {
		return err
	}
	if err := writeSVG(in, hi, cfg.artifact("fig3e.svg"), render.Options{Width: 600, Height: 360}); err != nil {
		return err
	}
	cfg.printf("artifacts: %s, %s\n", cfg.artifact("fig3d.svg"), cfg.artifact("fig3e.svg"))
	return nil
}

// pickFigPs selects the two p values whose partitions best match the
// Fig. 3.d/3.e granularities: the closest to ~56 areas and the closest to
// ~15 areas (counts on the artificial trace).
func pickFigPs(points []core.QualityPoint) (pd, pe float64) {
	bestD, bestE := 1<<30, 1<<30
	pd, pe = 0.3, 0.9
	for _, q := range points {
		if d := absInt(q.Areas - 56); d < bestD {
			bestD, pd = d, q.P
		}
		if d := absInt(q.Areas - 15); d < bestE {
			bestE, pe = d, q.P
		}
	}
	return pd, pe
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// fixedPartition builds Fig. 3.b: clusters × four 5-slice periods.
func fixedPartition(m *microscopic.Model) *partition.Partition {
	pt := &partition.Partition{P: 0.5}
	for _, n := range m.H.Root.Children {
		for k := 0; k < 4; k++ {
			pt.Areas = append(pt.Areas, partition.Area{Node: n, I: k * 5, J: k*5 + 4})
		}
	}
	return pt
}

// writeSVG renders the partition to an SVG file.
func writeSVG(in *core.Input, pt *partition.Partition, path string, opt render.Options) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return render.BuildScene(in, pt, opt).SVG(f)
}

// runFig1 reproduces Figure 1: the case-A overview with the perturbation
// around 3 s, plus the §V.A findings (phases, wait-dedicated processes,
// impacted-process list).
func RunFig1(cfg Config) error {
	b, err := cfg.bundle(grid5000.CaseA)
	if err != nil {
		return err
	}
	res, m, in := b.res, b.model, b.in
	pt, err := in.NewSolver().RunContext(cfg.context(), 0.2)
	if err != nil {
		return err
	}
	rep := analysis.Describe(in, pt, 2)
	cfg.printf("%s", rep.Format(m.States))
	gt := res.Perturbations[0]
	cfg.printf("\nground truth: %s %0.2fs–%0.2fs affecting %d ranks\n", gt.Kind, gt.Start, gt.End, len(gt.Ranks))
	devs := analysis.DeviatingResources(m, pt, m.Slicer.SliceOf(gt.Start)-1, m.Slicer.SliceOf(gt.End)+1)
	hits := 0
	truth := map[string]bool{}
	for _, r := range gt.Ranks {
		truth[res.Trace.Resources[r]] = true
	}
	for _, d := range devs {
		if truth[d.Path] {
			hits++
		}
	}
	cfg.printf("detected %d deviating resources near the perturbation, %d of them truly perturbed\n", len(devs), hits)
	if err := writeSVG(in, pt, cfg.artifact("fig1.svg"), render.Options{Width: 1000, Height: 512}); err != nil {
		return err
	}
	f, err := os.Create(cfg.artifact("fig1.png"))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := render.BuildScene(in, pt, render.Options{Width: 1000, Height: 512}).PNG(f); err != nil {
		return err
	}
	cfg.printf("artifacts: %s, %s\n", cfg.artifact("fig1.svg"), cfg.artifact("fig1.png"))
	return nil
}

// runFig2 reproduces Figure 2: the cluttered Gantt chart of the same
// trace. The point is quantitative — most events cannot be drawn
// faithfully at screen resolution.
func RunFig2(cfg Config) error {
	b, err := cfg.bundle(grid5000.CaseA)
	if err != nil {
		return err
	}
	res := b.res
	f, err := os.Create(cfg.artifact("fig2.png"))
	if err != nil {
		return err
	}
	defer f.Close()
	// The paper's Fig. 2 shows 1/7 of the trace and is still cluttered;
	// take a central seventh (inside the computation phase).
	_, we := res.Trace.Window()
	sub := res.Trace.Slice(3*we/7, 4*we/7)
	stats, err := render.Gantt(sub, 1200, 512, nil, f)
	if err != nil {
		return err
	}
	cfg.printf("Gantt of 1/7 of case A at 1200×512: %s\n", stats)
	full, err := render.Gantt(res.Trace, 1200, 512, nil, nil)
	if err != nil {
		return err
	}
	cfg.printf("Gantt of the full trace:            %s\n", full)
	cfg.printf("artifact: %s\n", cfg.artifact("fig2.png"))
	return nil
}

// runFig4 reproduces Figure 4: the case-C overview — Graphene homogeneous,
// Graphite spatially separated and heterogeneous, Griffon ruptured at
// 34.5 s.
func RunFig4(cfg Config) error {
	b, err := cfg.bundle(grid5000.CaseC)
	if err != nil {
		return err
	}
	res, m, in := b.res, b.model, b.in
	pt, err := in.NewSolver().RunContext(cfg.context(), 0.35)
	if err != nil {
		return err
	}
	rep := analysis.Describe(in, pt, 2)
	cfg.printf("%s", rep.Format(m.States))
	for _, gt := range res.Perturbations {
		cfg.printf("ground truth: %-18s %6.2fs–%6.2fs affecting %d ranks\n", gt.Kind, gt.Start, gt.End, len(gt.Ranks))
	}
	if err := writeSVG(in, pt, cfg.artifact("fig4.svg"), render.Options{Width: 1000, Height: 700, MinHeight: 2}); err != nil {
		return err
	}
	cfg.printf("artifacts: %s\n", cfg.artifact("fig4.svg"))
	return nil
}
