package main

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"ocelotl/internal/core"
	"ocelotl/internal/grid5000"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/mpisim"
	"ocelotl/internal/traceio"
)

// testLoadModel adapts loadModel to the pre-index test call shape: auto
// mode, cleanup registered on the test.
func testLoadModel(t *testing.T, tracePath, caseName string, scale float64, seed int64, slices int, from, to float64, indexed bool) (*microscopic.Model, error) {
	t.Helper()
	m, cleanup, err := loadModel(tracePath, caseName, scale, seed, slices, from, to, indexed, microscopic.IndexAuto)
	t.Cleanup(cleanup)
	return m, err
}

func TestLoadModelFromCase(t *testing.T) {
	m, err := testLoadModel(t, "", "A", 0.002, 1, 10, 0, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumResources() != 64 || m.NumSlices() != 10 {
		t.Errorf("dims: %d resources, %d slices", m.NumResources(), m.NumSlices())
	}
}

func TestLoadModelFromFile(t *testing.T) {
	res, err := mpisim.GenerateCase(grid5000.CaseA, mpisim.Config{Seed: 1, EventTarget: 5000})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.bin")
	if err := traceio.WriteFile(path, res.Trace); err != nil {
		t.Fatal(err)
	}
	m, err := testLoadModel(t, path, "", 0, 0, 15, 0, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumResources() != 64 || m.NumSlices() != 15 {
		t.Errorf("dims: %d resources, %d slices", m.NumResources(), m.NumSlices())
	}
}

func TestLoadModelErrors(t *testing.T) {
	if _, err := testLoadModel(t, "", "", 0, 0, 10, 0, 1, false); err == nil {
		t.Error("no source accepted")
	}
	if _, err := testLoadModel(t, "x.bin", "A", 0, 0, 10, 0, 1, false); err == nil {
		t.Error("both sources accepted")
	}
	if _, err := testLoadModel(t, filepath.Join(t.TempDir(), "missing.bin"), "", 0, 0, 10, 0, 1, false); err == nil {
		t.Error("missing file accepted")
	}
	if _, err := testLoadModel(t, "", "Q", 0.01, 0, 10, 0, 1, false); err == nil {
		t.Error("unknown case accepted")
	}
}

func TestLoadModelZoom(t *testing.T) {
	// Zooming into the case-A computation phase: the model window must
	// cover exactly the requested fraction.
	m, err := testLoadModel(t, "", "A", 0.005, 1, 10, 0.25, 0.75, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.Slicer.Start < 2.3 || m.Slicer.Start > 2.45 || m.Slicer.End < 7.0 || m.Slicer.End > 7.2 {
		t.Errorf("zoom window = [%g,%g), want ≈[2.375,7.125)", m.Slicer.Start, m.Slicer.End)
	}
	for _, bad := range [][2]float64{{-0.1, 1}, {0, 1.1}, {0.6, 0.4}, {0.5, 0.5}} {
		if _, err := testLoadModel(t, "", "A", 0.005, 1, 10, bad[0], bad[1], false); err == nil {
			t.Errorf("zoom window %v accepted", bad)
		}
	}
}

func TestRunModeAll(t *testing.T) {
	m, err := testLoadModel(t, "", "A", 0.002, 1, 10, 0, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	in := mustInput(t, m, core.Options{})
	for _, mode := range []string{"st", "spatial", "temporal", "product"} {
		pt, err := runMode(context.Background(), m, in, mode, 0.4)
		if err != nil {
			t.Errorf("mode %s: %v", mode, err)
			continue
		}
		if err := pt.Validate(m.H, m.NumSlices()); err != nil {
			t.Errorf("mode %s: invalid partition: %v", mode, err)
		}
	}
	if _, err := runMode(context.Background(), m, in, "bogus", 0.4); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestLoadModelIndexed(t *testing.T) {
	m, err := testLoadModel(t, "", "A", 0.002, 1, 10, 0, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if m.Reslicer() == nil {
		t.Fatal("indexed load did not attach a reslicer")
	}
	// And the streaming path too.
	res, err := mpisim.GenerateCase(grid5000.CaseA, mpisim.Config{Seed: 1, EventTarget: 4000})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.bin")
	if err := traceio.WriteFile(path, res.Trace); err != nil {
		t.Fatal(err)
	}
	m, err = testLoadModel(t, path, "", 0, 0, 12, 0, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if m.Reslicer() == nil {
		t.Fatal("indexed stream load did not attach a reslicer")
	}
}

func TestReplayWindow(t *testing.T) {
	ctx := context.Background()
	m, err := testLoadModel(t, "", "A", 0.002, 1, 10, 0, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	in := mustInput(t, m, core.Options{})
	var log bytes.Buffer
	out, err := replayWindow(ctx, &log, in, "2:7,0:9", "1,1,-3")
	if err != nil {
		t.Fatal(err)
	}
	if out == in || out.Model == m {
		t.Fatal("replay did not move the window")
	}
	lines := strings.Count(log.String(), "\n")
	if lines != 5 {
		t.Fatalf("replay logged %d steps, want 5:\n%s", lines, log.String())
	}
	if !strings.Contains(log.String(), "reused 9/10 slices") {
		t.Errorf("pan step did not report slice reuse:\n%s", log.String())
	}
	// The replayed input answers queries like a fresh one on its window.
	fm, err := m.Reslicer().BuildAt(out.Model.Slicer)
	if err != nil {
		t.Fatal(err)
	}
	fresh := mustInput(t, fm, core.Options{})
	a, err := out.NewSolver().RunContext(ctx, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fresh.NewSolver().RunContext(ctx, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if a.Signature() != b.Signature() {
		t.Error("replayed input disagrees with a fresh build on the final window")
	}

	for _, bad := range []struct{ zoom, pan string }{
		{"2", ""}, {"a:b", ""}, {"", "x"}, {"3:1", ""},
	} {
		if _, err := replayWindow(ctx, &log, in, bad.zoom, bad.pan); err == nil {
			t.Errorf("replay accepted zoom=%q pan=%q", bad.zoom, bad.pan)
		}
	}
}

// TestReplayWindowCancelled: a cancelled ctx (the CLI's SIGINT) aborts a
// zoom or pan replay step with context.Canceled instead of finishing the
// window derivation.
func TestReplayWindowCancelled(t *testing.T) {
	m, err := testLoadModel(t, "", "A", 0.002, 1, 10, 0, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	in := mustInput(t, m, core.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, steps := range []struct{ zoom, pan string }{{"2:7", ""}, {"", "1"}} {
		var log bytes.Buffer
		out, err := replayWindow(ctx, &log, in, steps.zoom, steps.pan)
		if !errors.Is(err, context.Canceled) || out != nil {
			t.Errorf("zoom=%q pan=%q: cancelled replay returned (input %t, %v), want (no input, context.Canceled)",
				steps.zoom, steps.pan, out != nil, err)
		}
	}
}

// TestLoadModelDiskIndex forces -index=disk through both load paths and
// checks the disk backend answers the replay engine identically to RAM.
func TestLoadModelDiskIndex(t *testing.T) {
	ctx := context.Background()
	ramM, ramClean, err := loadModel("", "A", 0.002, 1, 10, 0, 1, true, microscopic.IndexRAM)
	if err != nil {
		t.Fatal(err)
	}
	defer ramClean()
	diskM, diskClean, err := loadModel("", "A", 0.002, 1, 10, 0, 1, true, microscopic.IndexDisk)
	if err != nil {
		t.Fatal(err)
	}
	defer diskClean()
	if kind := diskM.Reslicer().IndexKind(); kind != "disk" {
		t.Fatalf("forced disk index reports kind %q", kind)
	}
	var ramLog, diskLog bytes.Buffer
	ramIn, err := replayWindow(ctx, &ramLog, mustInput(t, ramM, core.Options{}), "2:7", "1,-2")
	if err != nil {
		t.Fatal(err)
	}
	diskIn, err := replayWindow(ctx, &diskLog, mustInput(t, diskM, core.Options{}), "2:7", "1,-2")
	if err != nil {
		t.Fatal(err)
	}
	a, err := ramIn.NewSolver().RunContext(ctx, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := diskIn.NewSolver().RunContext(ctx, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if a.Signature() != b.Signature() {
		t.Error("disk-indexed replay disagrees with RAM-indexed replay")
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
