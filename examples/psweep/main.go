// psweep explores the gain/loss trade-off of §III.C interactively: it
// enumerates the significant p values of a trace (the distinct optimal
// partitions reachable by the slider), prints the quality curves, and
// compares the spatiotemporal optimum against the three baselines at each
// stop — the data behind the paper's claim that the analyst can "easily
// choose several levels of details".
//
//	go run ./examples/psweep [-case A] [-scale 0.02]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"ocelotl/internal/core"
	"ocelotl/internal/grid5000"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/mpisim"
	"ocelotl/internal/product"
	"ocelotl/internal/spatial"
	"ocelotl/internal/temporal"
)

func main() {
	caseName := flag.String("case", "A", "Table II case to analyze")
	scale := flag.Float64("scale", 0.02, "event-count scale")
	seed := flag.Int64("seed", 42, "simulation seed")
	flag.Parse()

	res, err := mpisim.GenerateCase(grid5000.Case(*caseName), mpisim.Config{Seed: *seed, Scale: *scale})
	if err != nil {
		log.Fatal(err)
	}
	model, err := microscopic.Build(res.Trace, microscopic.Options{Slices: 30})
	if err != nil {
		log.Fatal(err)
	}
	// One immutable input serves every query below; the sweeps solve
	// many p values concurrently against it.
	ctx := context.Background()
	in, err := core.NewInputContext(ctx, model, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	rootGain, rootLoss := in.RootGainLoss()
	fmt.Printf("case %s: %d events, |S|=%d, |T|=%d\n", *caseName, res.Trace.NumEvents(),
		model.NumResources(), model.NumSlices())
	fmt.Printf("full aggregation: gain %.1f bits, loss %.1f bits\n\n", rootGain, rootLoss)

	points, err := in.SignificantPsContext(ctx, 1e-3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d significant p values (each a distinct optimal partition):\n", len(points))
	fmt.Printf("%10s %8s %12s %12s %14s %14s\n", "p", "areas", "gain%", "loss%", "norm. gain", "norm. loss")
	for _, q := range points {
		fmt.Printf("%10.4f %8d %11.1f%% %11.1f%% %14.2f %14.2f\n",
			q.P, q.Areas, 100*q.Gain/rootGain, 100*safeDiv(q.Loss, rootLoss), q.Gain, q.Loss)
	}

	// Baseline comparison at three representative stops. The
	// spatiotemporal column is solved in parallel over the shared input.
	sa, ta, pa := spatial.New(model), temporal.New(model), product.New(model)
	fmt.Printf("\nbaseline comparison (pIC at equal p; higher is better):\n")
	fmt.Printf("%6s %14s %14s %14s %14s\n", "p", "spatiotemporal", "product", "spatial-only", "temporal-only")
	ps := []float64{0.15, 0.5, 0.85}
	sts, err := in.SweepRunContext(ctx, ps)
	if err != nil {
		log.Fatal(err)
	}
	for i, p := range ps {
		st := sts[i]
		pr, err := pa.Evaluate(in, p)
		if err != nil {
			log.Fatal(err)
		}
		sp, err := sa.Run(p)
		if err != nil {
			log.Fatal(err)
		}
		tp, err := ta.Run(p)
		if err != nil {
			log.Fatal(err)
		}
		// The 1-D baselines optimize different (reduced) datasets; their
		// pIC is reported on their own criterion for context, the
		// product is scored on the full model.
		fmt.Printf("%6.2f %14.2f %14.2f %14.2f %14.2f\n", p, st.PIC, pr.PIC, sp.PIC, tp.PIC)
	}
	fmt.Println("\n(spatiotemporal ≥ product always; 1-D columns use their reduced datasets)")
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
