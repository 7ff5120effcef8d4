package experiments

import (
	"os"
	"path/filepath"
	"time"

	"ocelotl/internal/core"
	"ocelotl/internal/grid5000"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/mpisim"
	"ocelotl/internal/trace"
	"ocelotl/internal/traceio"
)

// runTable2 reproduces Table II: for each case A–D, the scenario settings,
// the generated trace's event count and on-disk size, and the three
// pipeline timings the paper reports — trace reading, microscopic
// description, aggregation. Event counts are scaled by -scale; the paper's
// absolute numbers are printed alongside for comparison.
func RunTable2(cfg Config) error {
	cfg.printf("Table II reproduction (scale %.3g; paper values in parentheses)\n\n", cfg.Scale)
	cfg.printf("%-6s %-4s %-6s %-10s %12s %10s %12s %14s %12s %12s\n",
		"Case", "App", "Class", "Procs", "Events", "Trace MB", "Reading", "Microscopic", "Aggregation", "Sweep16/p")
	for _, c := range grid5000.AllCases() {
		// Each case generates, re-reads and aggregates a whole trace; honor
		// an interrupt between cases rather than finishing the table.
		if err := cfg.context().Err(); err != nil {
			return err
		}
		sc, err := grid5000.Scenarios(c)
		if err != nil {
			return err
		}
		row, err := measureCase(cfg, sc)
		if err != nil {
			return err
		}
		cfg.printf("%-6s %-4s %-6s %-10d %12d %10.1f %12v %14v %12v %12v\n",
			string(c), sc.Application, sc.Class, sc.Processes,
			row.events, row.traceMB, row.read.Round(time.Millisecond), row.micro.Round(time.Millisecond), row.agg.Round(time.Millisecond),
			(row.sweep / 16).Round(time.Microsecond))
		cfg.printf("%-6s %-4s %-6s %-10s %12d %10.1f %12s %14s %12s %12s\n",
			"", "", "", "(paper)", sc.PaperEvents, sc.PaperTraceMB,
			paperReading(c), paperMicro(c), paperAgg(c), "-")
	}
	cfg.println("\nShape check: aggregation must be orders of magnitude below reading, and")
	cfg.println("stay interactive (≪1 s at 30 slices) regardless of the event count; the")
	cfg.println("fused sweep's per-p cost must sit below one Aggregation run.")
	return nil
}

type table2Row struct {
	events  int
	traceMB float64
	read    time.Duration
	micro   time.Duration
	agg     time.Duration
	sweep   time.Duration // fused 16-p quality sweep (Sweep16/p = sweep/16)
}

func measureCase(cfg Config, sc grid5000.Scenario) (table2Row, error) {
	var row table2Row
	// Generate the scaled trace to disk (binary, the fast path).
	dir, err := os.MkdirTemp("", "ocelotl-table2-")
	if err != nil {
		return row, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "trace.bin")
	w, err := traceio.CreateFile(path, traceio.Header{
		Resources: sc.Platform.ResourcePaths(sc.Processes),
		States:    mpisim.StateNames,
		Start:     0, End: sc.PaperRuntime,
	})
	if err != nil {
		return row, err
	}
	n := 0
	if _, err := mpisim.GenerateStream(sc, mpisim.Config{Seed: cfg.Seed, Scale: cfg.Scale}, func(ev trace.Event) error {
		n++
		return w.WriteEvent(ev)
	}); err != nil {
		return row, err
	}
	if err := w.Close(); err != nil {
		return row, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return row, err
	}
	row.events = n
	row.traceMB = float64(st.Size()) / (1 << 20)

	// Stage 1: trace reading (decode the file into event structures).
	var tr *trace.Trace
	row.read, err = timed(func() error {
		var err error
		tr, err = traceio.ReadFile(path)
		return err
	})
	if err != nil {
		return row, err
	}
	// Stage 2: microscopic description (events → d_x(s,t)).
	var m *microscopic.Model
	row.micro, err = timed(func() error {
		var err error
		m, err = microscopic.Build(tr, microscopic.Options{Slices: cfg.Slices})
		return err
	})
	if err != nil {
		return row, err
	}
	// Stage 3: aggregation (input matrices + one Algorithm 1 run).
	var in *core.Input
	row.agg, err = timed(func() error {
		var err error
		if in, err = core.NewInputContext(cfg.context(), m, core.Options{}); err != nil {
			return err
		}
		_, err = in.NewSolver().RunContext(cfg.context(), 0.5)
		return err
	})
	if err != nil {
		return row, err
	}
	// Stage 4: the interactive exploration cost — a fused 16-p quality
	// sweep over the same Input (the "build once, answer every p" economics
	// the serving layer banks on); the table reports the per-p share.
	ps := make([]float64, 16)
	for i := range ps {
		ps[i] = float64(i+1) / float64(len(ps)+1)
	}
	row.sweep, err = timed(func() error {
		_, err := in.SweepQualityContext(cfg.context(), ps)
		return err
	})
	return row, err
}

func paperReading(c grid5000.Case) string {
	switch c {
	case grid5000.CaseA:
		return "44 s"
	case grid5000.CaseB:
		return "613 s"
	case grid5000.CaseC:
		return "2911 s"
	default:
		return "2091 s"
	}
}

func paperMicro(c grid5000.Case) string {
	switch c {
	case grid5000.CaseA:
		return "4 s"
	case grid5000.CaseB:
		return "55 s"
	case grid5000.CaseC:
		return "244 s"
	default:
		return "196 s"
	}
}

func paperAgg(c grid5000.Case) string {
	switch c {
	case grid5000.CaseA, grid5000.CaseB:
		return "<1 s"
	default:
		return "2 s"
	}
}
