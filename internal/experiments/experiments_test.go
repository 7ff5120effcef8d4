package experiments

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"ocelotl/internal/grid5000"
)

// quickCfg returns a config small enough for CI but large enough for the
// experiments' assertions to be meaningful.
func quickCfg(t *testing.T) (Config, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	return Config{
		OutDir: t.TempDir(),
		Scale:  0.004,
		Seed:   42,
		Slices: 30,
		Out:    &buf,
	}, &buf
}

func TestRunTable1(t *testing.T) {
	cfg, buf := quickCfg(t)
	if err := RunTable1(cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, crit := range []string{"G1", "G2", "G3", "G4", "G5", "G6", "M1", "M2"} {
		if !strings.Contains(out, crit) {
			t.Errorf("criterion %s missing", crit)
		}
	}
	if strings.Contains(out, "FAILED") {
		t.Errorf("a checkable criterion failed:\n%s", out)
	}
}

func TestRunFig3(t *testing.T) {
	cfg, buf := quickCfg(t)
	if err := RunFig3(cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"3.b", "3.c", "3.d", "3.e", "3.f", "significant p values"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig3 output missing %q", want)
		}
	}
	if strings.Contains(out, "WARNING") {
		t.Errorf("fig3 reported a dominance violation:\n%s", out)
	}
	for _, f := range []string{"fig3d.svg", "fig3e.svg"} {
		if _, err := os.Stat(filepath.Join(cfg.OutDir, f)); err != nil {
			t.Errorf("artifact %s: %v", f, err)
		}
	}
	// The 3.d partition must have more areas than 3.e (the paper's
	// 56 > 15 ordering).
	re := regexp.MustCompile(`3\.d optimal at p=[0-9.]+:\s+(\d+) areas`)
	md := re.FindStringSubmatch(out)
	re = regexp.MustCompile(`3\.e optimal at p=[0-9.]+:\s+(\d+) areas`)
	me := re.FindStringSubmatch(out)
	if md == nil || me == nil {
		t.Fatalf("area counts not found:\n%s", out)
	}
	if md[1] <= me[1] && len(md[1]) <= len(me[1]) { // numeric compare via width+lex
		t.Errorf("3.d (%s areas) should be finer than 3.e (%s areas)", md[1], me[1])
	}
}

func TestRunTable2(t *testing.T) {
	cfg, buf := quickCfg(t)
	if err := RunTable2(cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Case", "(paper)", "3838144", "218457456"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 output missing %q", want)
		}
	}
	// All four cases present.
	for _, c := range []string{"A ", "B ", "C ", "D "} {
		if !strings.Contains(out, "\n"+c) {
			t.Errorf("case %q row missing", strings.TrimSpace(c))
		}
	}
}

func TestRunFig1(t *testing.T) {
	cfg, buf := quickCfg(t)
	cfg.Scale = 0.02 // fig1 needs event density for the detection claim
	if err := RunFig1(cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "MPI_Init") {
		t.Error("fig1 output missing the init phase")
	}
	if !strings.Contains(out, "network-contention") {
		t.Error("fig1 output missing the ground truth")
	}
	re := regexp.MustCompile(`detected (\d+) deviating resources near the perturbation, (\d+) of them truly perturbed`)
	m := re.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("detection line missing:\n%s", out)
	}
	if m[2] == "0" {
		t.Error("no truly perturbed resources detected")
	}
	for _, f := range []string{"fig1.svg", "fig1.png"} {
		if _, err := os.Stat(filepath.Join(cfg.OutDir, f)); err != nil {
			t.Errorf("artifact %s: %v", f, err)
		}
	}
}

func TestRunFig2(t *testing.T) {
	cfg, buf := quickCfg(t)
	cfg.Scale = 0.02
	if err := RunFig2(cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "sub-pixel") {
		t.Error("fig2 output missing clutter stats")
	}
	if _, err := os.Stat(filepath.Join(cfg.OutDir, "fig2.png")); err != nil {
		t.Errorf("artifact fig2.png: %v", err)
	}
}

func TestRunFig4(t *testing.T) {
	cfg, buf := quickCfg(t)
	if err := RunFig4(cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"graphene", "graphite", "griffon", "switch-sharing"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig4 output missing %q", want)
		}
	}
	if _, err := os.Stat(filepath.Join(cfg.OutDir, "fig4.svg")); err != nil {
		t.Errorf("artifact fig4.svg: %v", err)
	}
}

func TestRunAblation(t *testing.T) {
	cfg, buf := quickCfg(t)
	if err := RunAblation(cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"scaling in |T|", "scaling in |S|", "product baseline", "significant-p ladder"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation output missing %q", want)
		}
	}
	if !strings.Contains(out, "core strictly better") {
		t.Error("ablation found no p where core strictly beats the product baseline")
	}
}

func TestRunDispatch(t *testing.T) {
	cfg, _ := quickCfg(t)
	if err := RunContext(context.Background(), "bogus", cfg); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := RunContext(context.Background(), "table1", cfg); err != nil {
		t.Errorf("dispatch table1: %v", err)
	}
}

func TestNamesComplete(t *testing.T) {
	names := Names()
	if len(names) != 8 {
		t.Fatalf("Names = %v", names)
	}
	cfg, _ := quickCfg(t)
	// Every named experiment must dispatch.
	for _, n := range names {
		if n == "table2" || n == "fig1" || n == "fig2" || n == "fig4" {
			continue // covered above; skip the slow ones here
		}
		if err := RunContext(context.Background(), n, cfg); err != nil {
			t.Errorf("Run(%s): %v", n, err)
		}
	}
}

func TestRunWindowing(t *testing.T) {
	cfg, buf := quickCfg(t)
	if err := RunWindowing(cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"pan 1", "pan 25", "zoom 10:19", "speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("windowing report missing %q:\n%s", want, out)
		}
	}
	if regexp.MustCompile(`pan 1 .*NaN`).MatchString(out) {
		t.Errorf("bad speedup:\n%s", out)
	}
}

// TestPrepareBatchesSharedCases: Prepare must build each needed case
// exactly once across the worker pool, and Run* consumers must reuse the
// memoized bundle rather than regenerating (same pointer identity).
func TestPrepareBatchesSharedCases(t *testing.T) {
	cfg, _ := quickCfg(t)
	cfg.Workers = 2
	cfg = Prepare(cfg, "fig1", "fig2", "fig4")

	b1, err := cfg.bundle(grid5000.CaseA)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := cfg.bundle(grid5000.CaseA)
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 {
		t.Fatal("case A rebuilt instead of reusing the memoized bundle")
	}
	if b1.res == nil || b1.model == nil || b1.in == nil {
		t.Fatalf("incomplete bundle: %+v", b1)
	}
	// The prepared bundle must match a direct, unbatched build.
	direct, err := buildBundle(cfg, grid5000.CaseA)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := b1.model.TotalTime(), direct.model.TotalTime(); got != want {
		t.Fatalf("batched model TotalTime %v != direct %v", got, want)
	}
	bg, bl := b1.in.RootGainLoss()
	dg, dl := direct.in.RootGainLoss()
	if bg != dg || bl != dl {
		t.Fatalf("batched input root gain/loss (%v,%v) != direct (%v,%v)", bg, bl, dg, dl)
	}
	if got := casesFor([]string{"fig1", "fig2", "fig4"}); len(got) != 2 {
		t.Fatalf("casesFor = %v, want the two distinct cases A and C", got)
	}
}
