package render

import (
	"bytes"
	"context"
	"image/color"
	"image/png"
	"strings"
	"testing"

	"ocelotl/internal/core"
	"ocelotl/internal/grid5000"
	"ocelotl/internal/hierarchy"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/mpisim"
	"ocelotl/internal/partition"
	"ocelotl/internal/timeslice"
	"ocelotl/internal/trace"
)

// artificialScene builds a scene from the Fig. 3 artificial trace.
func artificialScene(t *testing.T, p float64, opt Options) (*core.Input, *partition.Partition, *Scene) {
	ctx := context.Background()
	t.Helper()
	tr := mpisim.Artificial()
	m, err := microscopic.Build(tr, microscopic.Options{Slices: 20})
	if err != nil {
		t.Fatal(err)
	}
	in := mustInput(t, m, core.Options{})
	pt, err := in.NewSolver().RunContext(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	return in, pt, BuildScene(in, pt, opt)
}

func TestSceneCoversAllAggregates(t *testing.T) {
	_, pt, sc := artificialScene(t, 0.5, Options{Width: 800, Height: 480})
	// No visual aggregation at 40 px per resource: every aggregate drawn.
	if sc.DataAggregates != pt.NumAreas() {
		t.Errorf("data aggregates = %d, partition has %d", sc.DataAggregates, pt.NumAreas())
	}
	if sc.VisualAggregates != 0 || sc.HiddenAggregates != 0 {
		t.Errorf("unexpected visual aggregation: %d visual, %d hidden", sc.VisualAggregates, sc.HiddenAggregates)
	}
	if len(sc.Rects) != pt.NumAreas() {
		t.Errorf("rects = %d", len(sc.Rects))
	}
}

func TestSceneGeometryWithinBounds(t *testing.T) {
	_, _, sc := artificialScene(t, 0.4, Options{Width: 640, Height: 360})
	for _, r := range sc.Rects {
		if r.X < -1e-9 || r.Y < -1e-9 || r.X+r.W > float64(sc.W)+1e-9 || r.Y+r.H > float64(sc.H)+1e-9 {
			t.Errorf("rect out of bounds: %+v", r)
		}
		if r.W <= 0 || r.H <= 0 {
			t.Errorf("degenerate rect: %+v", r)
		}
	}
}

func TestSceneAlphaRange(t *testing.T) {
	_, _, sc := artificialScene(t, 0.5, Options{})
	for _, r := range sc.Rects {
		if r.Mode >= 0 && (r.Alpha < 0.5-1e-9 || r.Alpha > 1+1e-9) {
			// Two states → α ∈ [1/2, 1] per §IV.
			t.Errorf("alpha %g outside [1/2,1] for rect %+v", r.Alpha, r.Area)
		}
	}
}

func TestVisualAggregationTriggers(t *testing.T) {
	// 12 resources on a 24-px-high canvas = 2 px per resource; a 5-px
	// threshold forces leaf-level aggregates to fold into parents.
	_, pt, sc := artificialScene(t, 0.3, Options{Width: 400, Height: 24, MinHeight: 5})
	if sc.VisualAggregates == 0 {
		t.Fatalf("no visual aggregation at 2 px/resource (partition had %d areas)", pt.NumAreas())
	}
	if sc.HiddenAggregates == 0 {
		t.Error("visual aggregates exist but nothing hidden")
	}
	// Every visual rect carries a mark.
	for _, r := range sc.Rects {
		if r.Visual && r.Mark == MarkNone {
			t.Errorf("visual aggregate without mark: %+v", r.Area)
		}
		if !r.Visual && r.Mark != MarkNone {
			t.Errorf("data aggregate with mark: %+v", r.Area)
		}
	}
	// Accounting: data + hidden = partition areas.
	if sc.DataAggregates+sc.HiddenAggregates != pt.NumAreas() {
		t.Errorf("accounting broken: %d data + %d hidden != %d areas",
			sc.DataAggregates, sc.HiddenAggregates, pt.NumAreas())
	}
}

func TestDiagonalVsCrossMarks(t *testing.T) {
	// Hand-build a hierarchy and partitions to pin the §IV mark rule.
	h, err := hierarchy.FromPaths([]string{"A/a0", "A/a1", "B/b0", "B/b1"})
	if err != nil {
		t.Fatal(err)
	}
	sl, _ := timeslice.New(0, 4, 4)
	m := microscopic.NewEmpty(h, sl, []string{"x", "y"})
	for s := 0; s < 4; s++ {
		for ti := 0; ti < 4; ti++ {
			m.AddD(0, s, ti, 0.5)
		}
	}
	in := mustInput(t, m, core.Options{})
	// Same temporal partitioning within A → diagonal.
	same := &partition.Partition{Areas: []partition.Area{
		{Node: h.ByPath["A/a0"], I: 0, J: 1}, {Node: h.ByPath["A/a0"], I: 2, J: 3},
		{Node: h.ByPath["A/a1"], I: 0, J: 1}, {Node: h.ByPath["A/a1"], I: 2, J: 3},
		{Node: h.ByPath["B"], I: 0, J: 3},
	}}
	// 4 resources on 4 px → 1 px per leaf; threshold 3 px: clusters
	// (2 px) are still too small, so everything folds to the root
	// (4 px). Within that group A's resources are cut at t=1 but B's
	// are not → heterogeneous partitionings → a cross mark.
	scSame := BuildScene(in, same, Options{Width: 100, Height: 4, MinHeight: 3})
	rootCross := false
	for _, r := range scSame.Rects {
		if r.Visual && r.Mark == MarkCross {
			rootCross = true
		}
	}
	if !rootCross {
		t.Error("root-level visual aggregate should carry a cross: A is cut at t=1, B is not")
	}
	// With 8 px height the 2-leaf clusters are tall enough (4 px ≥ 3):
	// each group is now internally homogeneous → diagonals only.
	scA := BuildScene(in, same, Options{Width: 100, Height: 8, MinHeight: 3})
	var diag, cross int
	for _, r := range scA.Rects {
		switch r.Mark {
		case MarkDiagonal:
			diag++
		case MarkCross:
			cross++
		}
	}
	if diag == 0 {
		t.Errorf("no diagonal marks for identical temporal partitionings (diag=%d cross=%d)", diag, cross)
	}
	if cross != 0 {
		t.Errorf("cross marks despite identical partitionings within each group (diag=%d cross=%d)", diag, cross)
	}

	// Different temporal partitioning within A → cross.
	diff := &partition.Partition{Areas: []partition.Area{
		{Node: h.ByPath["A/a0"], I: 0, J: 1}, {Node: h.ByPath["A/a0"], I: 2, J: 3},
		{Node: h.ByPath["A/a1"], I: 0, J: 3},
		{Node: h.ByPath["B"], I: 0, J: 3},
	}}
	scDiff := BuildScene(in, diff, Options{Width: 100, Height: 8, MinHeight: 3})
	foundCross := false
	for _, r := range scDiff.Rects {
		if r.Mark == MarkCross {
			foundCross = true
		}
	}
	if !foundCross {
		t.Error("no cross mark for heterogeneous temporal partitionings")
	}
}

func TestSVGWellFormed(t *testing.T) {
	_, _, sc := artificialScene(t, 0.5, Options{Width: 300, Height: 200})
	var buf bytes.Buffer
	if err := sc.SVG(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.HasPrefix(s, "<svg") || !strings.HasSuffix(strings.TrimSpace(s), "</svg>") {
		t.Error("SVG not delimited")
	}
	if strings.Count(s, "<rect") < len(sc.Rects) {
		t.Errorf("SVG has %d rects, scene has %d", strings.Count(s, "<rect"), len(sc.Rects))
	}
	for _, le := range sc.Legend {
		if !strings.Contains(s, le.State) {
			t.Errorf("legend entry %q missing", le.State)
		}
	}
	if !strings.Contains(s, "text-anchor") {
		t.Error("no axis labels")
	}
}

func TestPNGDecodes(t *testing.T) {
	_, _, sc := artificialScene(t, 0.5, Options{Width: 200, Height: 120})
	var buf bytes.Buffer
	if err := sc.PNG(&buf); err != nil {
		t.Fatal(err)
	}
	img, err := png.Decode(&buf)
	if err != nil {
		t.Fatalf("PNG does not decode: %v", err)
	}
	b := img.Bounds()
	if b.Dx() != 200 || b.Dy() != 120 {
		t.Errorf("PNG size %dx%d", b.Dx(), b.Dy())
	}
	// Not all white: something was drawn.
	allWhite := true
	for y := b.Min.Y; y < b.Max.Y && allWhite; y++ {
		for x := b.Min.X; x < b.Max.X; x++ {
			r, g, bb, _ := img.At(x, y).RGBA()
			if r != 0xFFFF || g != 0xFFFF || bb != 0xFFFF {
				allWhite = false
				break
			}
		}
	}
	if allWhite {
		t.Error("PNG is blank")
	}
}

func TestASCIIOutput(t *testing.T) {
	_, _, sc := artificialScene(t, 0.5, Options{Width: 300, Height: 120})
	s := sc.ASCII(12, 40)
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 13 { // 12 rows + legend
		t.Fatalf("ASCII has %d lines", len(lines))
	}
	for i := 0; i < 12; i++ {
		if len(lines[i]) != 40 {
			t.Errorf("row %d width %d", i, len(lines[i]))
		}
	}
	if !strings.Contains(lines[12], "busy") || !strings.Contains(lines[12], "idle") {
		t.Errorf("legend line %q", lines[12])
	}
	// Defaults don't panic.
	if sc.ASCII(0, 0) == "" {
		t.Error("default ASCII empty")
	}
}

func TestDefaultPaletteStableAndDistinct(t *testing.T) {
	states := mpisim.StateNames
	p1 := DefaultPalette(states)
	p2 := DefaultPalette(states)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("palette not deterministic")
		}
	}
	seen := map[color.RGBA]bool{}
	for _, c := range p1 {
		if seen[c] {
			t.Errorf("duplicate color %v", c)
		}
		seen[c] = true
	}
	// MPI_Wait must be red-ish, MPI_Send green-ish (Fig. 1).
	wait := p1[mpisim.StateWait]
	if !(wait.R > wait.G && wait.R > wait.B) {
		t.Errorf("MPI_Wait color %v not red-dominant", wait)
	}
	send := p1[mpisim.StateSend]
	if !(send.G > send.R && send.G > send.B) {
		t.Errorf("MPI_Send color %v not green-dominant", send)
	}
}

func TestGanttStats(t *testing.T) {
	res, err := mpisim.GenerateCase(grid5000.CaseA, mpisim.Config{Seed: 1, EventTarget: 200000})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Gantt(res.Trace, 1000, 600, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events != res.Trace.NumEvents() {
		t.Errorf("events = %d, want %d", stats.Events, res.Trace.NumEvents())
	}
	if stats.Drawable+stats.SubPixel != stats.Events {
		t.Errorf("drawable %d + subpixel %d != events %d", stats.Drawable, stats.SubPixel, stats.Events)
	}
	// 50k events over 1000 px × 64 rows: most events must be sub-pixel —
	// the Fig. 2 clutter argument.
	if stats.SubPixel < stats.Events/2 {
		t.Errorf("only %d of %d events sub-pixel; expected clutter", stats.SubPixel, stats.Events)
	}
	if stats.OverdrawnPixels == 0 {
		t.Error("no overdraw on a cluttered Gantt")
	}
	if s := stats.String(); !strings.Contains(s, "sub-pixel") {
		t.Errorf("String() = %q", s)
	}
}

func TestGanttPNG(t *testing.T) {
	res, err := mpisim.GenerateCase(grid5000.CaseA, mpisim.Config{Seed: 1, EventTarget: 5000})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := Gantt(res.Trace, 400, 200, nil, &buf); err != nil {
		t.Fatal(err)
	}
	if _, err := png.Decode(&buf); err != nil {
		t.Fatalf("Gantt PNG invalid: %v", err)
	}
}

func TestGanttRejectsBadInput(t *testing.T) {
	tr := trace.New([]string{"r"}, []string{"x"})
	if _, err := Gantt(tr, 0, 100, nil, nil); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := Gantt(tr, 100, 100, nil, nil); err == nil {
		t.Error("empty window accepted")
	}
}

func TestMarkString(t *testing.T) {
	if MarkNone.String() != "none" || MarkDiagonal.String() != "diagonal" || MarkCross.String() != "cross" {
		t.Error("mark names wrong")
	}
	if !strings.HasPrefix(Mark(9).String(), "mark(") {
		t.Error("unknown mark String")
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
