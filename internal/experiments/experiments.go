// Package experiments regenerates every table and figure of the paper's
// evaluation (§V). Each Run* function writes its report to Config.Out and
// its artifacts (SVG/PNG) under Config.OutDir; cmd/experiments is the
// command-line wrapper. Keeping the logic here makes the whole evaluation
// pipeline testable.
package experiments

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"ocelotl/internal/grid5000"
)

// Config parametrizes an experiment run.
type Config struct {
	// OutDir receives rendered artifacts (created by RunContext if missing).
	OutDir string
	// Scale multiplies the paper's Table II event counts.
	Scale float64
	// Seed drives the simulators.
	Seed int64
	// Slices is the microscopic |T| (the paper uses 30).
	Slices int
	// Out receives the textual report (default os.Stdout).
	Out io.Writer
	// Workers bounds the parallelism of case preparation and of the
	// engine (core.Options.Workers); 0 picks GOMAXPROCS. This is the same
	// worker-count knob the serving layer exposes.
	Workers int

	// prep memoizes prepared cases across the experiments of one run so
	// independent cases batch across the worker pool (see batch.go).
	prep *casePrep

	// ctx carries RunContext's cancellation into the engine sweeps the
	// experiments drive; nil means context.Background().
	ctx context.Context
}

// context resolves the run's cancellation context.
func (c Config) context() context.Context {
	if c.ctx != nil {
		return c.ctx
	}
	return context.Background()
}

func (c Config) out() io.Writer {
	if c.Out != nil {
		return c.Out
	}
	return os.Stdout
}

func (c Config) printf(format string, args ...interface{}) {
	fmt.Fprintf(c.out(), format, args...)
}

func (c Config) println(args ...interface{}) {
	fmt.Fprintln(c.out(), args...)
}

func (c Config) artifact(name string) string { return filepath.Join(c.OutDir, name) }

// Names lists the experiments in canonical order.
func Names() []string {
	return []string{"table1", "fig3", "table2", "fig1", "fig2", "fig4", "ablation", "windowing"}
}

// casesFor returns the distinct Table II cases the named experiments
// consume through the shared bundle path ("all" expands to every name).
func casesFor(names []string) []grid5000.Case {
	need := map[string][]grid5000.Case{
		"fig1": {grid5000.CaseA}, "fig2": {grid5000.CaseA}, "fig4": {grid5000.CaseC},
	}
	seen := map[grid5000.Case]bool{}
	var out []grid5000.Case
	for _, n := range names {
		if n == "all" {
			return casesFor(Names())
		}
		for _, c := range need[n] {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	return out
}

// Prepare arms cfg's shared case memo and batches the preparation
// (generation, microscopic model, Input) of the independent cases the
// named experiments consume across the worker pool, instead of letting
// each experiment build its case sequentially on first touch. Successive
// RunContext calls with the returned Config share the prepared cases.
func Prepare(cfg Config, names ...string) Config {
	cfg.prep = newCasePrep()
	cfg.prebuild(casesFor(names))
	return cfg
}

// RunContext dispatches one experiment by name ("all" runs everything). A
// full run prebuilds the cases the figure experiments share across the
// worker pool (multi-trace batching) before executing the experiments in
// order. ctx is checked between experiments (and between the per-case
// stages of the batch ones), and is forwarded into every input pass and
// engine sweep an experiment drives, so a signalled batch run stops within
// one node's worth of work instead of finishing figures nobody will look
// at.
func RunContext(ctx context.Context, name string, cfg Config) error {
	if cfg.OutDir != "" {
		if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
			return err
		}
	}
	if cfg.prep == nil {
		cfg.prep = newCasePrep()
	}
	cfg.ctx = ctx
	fns := map[string]func(Config) error{
		"table1": RunTable1, "fig3": RunFig3, "table2": RunTable2,
		"fig1": RunFig1, "fig2": RunFig2, "fig4": RunFig4, "ablation": RunAblation,
		"windowing": RunWindowing,
	}
	if name == "all" {
		cfg.prebuild(casesFor(Names()))
		for _, n := range Names() {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fns[n](cfg); err != nil {
				return fmt.Errorf("%s: %w", n, err)
			}
		}
		return nil
	}
	fn, ok := fns[name]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q", name)
	}
	return fn(cfg)
}

// timed measures one pipeline stage.
func timed(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}
