// Quickstart: the paper's Fig. 3 pipeline in thirty lines — build a trace,
// derive its microscopic model, compute optimal spatiotemporal
// aggregations at two detail levels, and print terminal views.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"ocelotl/internal/core"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/mpisim"
	"ocelotl/internal/render"
)

func main() {
	// 1. A trace: 12 resources in 3 clusters, 20 seconds, 2 states.
	//    (Any trace.Trace works; this is the paper's Fig. 3 artifact.)
	tr := mpisim.Artificial()

	// 2. The microscopic model: events binned into |T| regular slices.
	model, err := microscopic.Build(tr, microscopic.Options{Slices: 20})
	if err != nil {
		log.Fatal(err)
	}

	// 3. The input pass precomputes gain/loss for every candidate area;
	//    each Solver then answers one Algorithm 1 query, and any number
	//    of them may run concurrently against the shared input. Every
	//    long-running engine call takes a context first.
	ctx := context.Background()
	in, err := core.NewInputContext(ctx, model, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	solver := in.NewSolver()

	for _, p := range []float64{0.25, 0.9} {
		pt, err := solver.RunContext(ctx, p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("p = %.2f → %d aggregates (gain %.1f bits, loss %.1f bits)\n",
			p, pt.NumAreas(), pt.Gain, pt.Loss)
		scene := render.BuildScene(in, pt, render.Options{Width: 600, Height: 240})
		fmt.Println(scene.ASCII(12, 60))
	}

	// 4. The significant p values are the slider stops an analyst
	//    would explore.
	points, err := in.SignificantPsContext(ctx, 1e-3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("significant p values:")
	for _, q := range points {
		fmt.Printf("  p=%6.4f → %3d areas\n", q.P, q.Areas)
	}
}
