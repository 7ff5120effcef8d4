// nascg reproduces the paper's §V.A case study end to end: NAS-CG class C
// on 64 cores of the Rennes parapide cluster, with a transient network
// contention around t ≈ 3 s. The example simulates the run, writes the
// trace to disk, reads it back through the streaming pipeline, aggregates,
// and checks the detection against the injected ground truth.
//
//	go run ./examples/nascg [-scale 0.05] [-out fig1.svg]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"ocelotl/internal/analysis"
	"ocelotl/internal/core"
	"ocelotl/internal/grid5000"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/mpisim"
	"ocelotl/internal/render"
	"ocelotl/internal/traceio"
)

func main() {
	scale := flag.Float64("scale", 0.05, "fraction of the paper's 3.8M events")
	seed := flag.Int64("seed", 42, "simulation seed")
	out := flag.String("out", "", "optional SVG output for the overview")
	flag.Parse()

	// Simulate the paper's case A and persist it like a real tracing
	// toolchain would.
	res, err := mpisim.GenerateCase(grid5000.CaseA, mpisim.Config{Seed: *seed, Scale: *scale})
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "nascg-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "caseA.bin")
	if err := traceio.WriteFile(path, res.Trace); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated NAS-CG class C, 64 processes: %d events → %s\n", res.Trace.NumEvents(), path)

	// Stream the file back into the microscopic model (30 slices, as in
	// the paper) and aggregate.
	r, err := traceio.OpenFile(path)
	if err != nil {
		log.Fatal(err)
	}
	defer r.Close()
	model, err := microscopic.BuildStream(r, microscopic.Options{Slices: 30})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	in, err := core.NewInputContext(ctx, model, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	pt, err := in.NewSolver().RunContext(ctx, 0.2)
	if err != nil {
		log.Fatal(err)
	}
	rep := analysis.Describe(in, pt, 2)
	fmt.Print(rep.Format(model.States))

	// Score the detection against the injected contention window.
	gt := res.Perturbations[0]
	fmt.Printf("\ninjected: %s %0.2f–%0.2f s on %d of 64 ranks (paper: 26)\n",
		gt.Kind, gt.Start, gt.End, len(gt.Ranks))
	devs := analysis.DeviatingResources(model, pt,
		model.Slicer.SliceOf(gt.Start)-1, model.Slicer.SliceOf(gt.End)+1)
	truth := make(map[string]bool, len(gt.Ranks))
	for _, rank := range gt.Ranks {
		truth[res.Trace.Resources[rank]] = true
	}
	hits := 0
	for _, d := range devs {
		if truth[d.Path] {
			hits++
		}
	}
	precision := 0.0
	if len(devs) > 0 {
		precision = float64(hits) / float64(len(devs))
	}
	fmt.Printf("detected %d deviating processes near the window (precision %.0f%%, recall %.0f%%)\n",
		len(devs), 100*precision, 100*float64(hits)/float64(len(gt.Ranks)))

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := render.BuildScene(in, pt, render.Options{Width: 1000, Height: 512}).SVG(f); err != nil {
			log.Fatal(err)
		}
		fmt.Println("overview written to", *out)
	}
}
