package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"ocelotl/internal/exhaustive"
	"ocelotl/internal/hierarchy"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/partition"
	"ocelotl/internal/timeslice"
)

// buildModel creates a model over the given hierarchy paths with X states
// and T slices of one second each, filled by fn(x, s, t) returning the
// proportion of slice t spent by resource s in state x. Proportions across
// states need not sum to 1 (idle time is allowed).
func buildModel(t *testing.T, paths []string, states []string, T int, fn func(x, s, t int) float64) *microscopic.Model {
	t.Helper()
	h, err := hierarchy.FromPaths(paths)
	if err != nil {
		t.Fatalf("hierarchy: %v", err)
	}
	sl, err := timeslice.New(0, float64(T), T)
	if err != nil {
		t.Fatalf("slicer: %v", err)
	}
	m := microscopic.NewEmpty(h, sl, states)
	for x := range states {
		for s := 0; s < h.NumLeaves(); s++ {
			for ti := 0; ti < T; ti++ {
				m.AddD(x, s, ti, fn(x, s, ti))
			}
		}
	}
	return m
}

var paths2x2 = []string{"A/a0", "A/a1", "B/b0", "B/b1"}

// randomModel2 builds a 2-state model where state shares sum to <= 1.
func randomModel2(t *testing.T, rng *rand.Rand, paths []string, T int) *microscopic.Model {
	h, err := hierarchy.FromPaths(paths)
	if err != nil {
		t.Fatalf("hierarchy: %v", err)
	}
	sl, _ := timeslice.New(0, float64(T), T)
	m := microscopic.NewEmpty(h, sl, []string{"u", "v"})
	for s := 0; s < h.NumLeaves(); s++ {
		for ti := 0; ti < T; ti++ {
			a := rng.Float64()
			b := rng.Float64() * (1 - a)
			m.AddD(0, s, ti, a)
			m.AddD(1, s, ti, b)
		}
	}
	return m
}

// bruteBest scores a pre-enumerated set of candidate partitions at ratio p
// using per-area gain/loss computed once from first principles.
func bruteBest(m *microscopic.Model, enumerated [][]partition.Area, p float64) float64 {
	type gl struct{ g, l float64 }
	cache := make(map[partition.Area]gl)
	score := func(ar partition.Area) gl {
		if v, ok := cache[ar]; ok {
			return v
		}
		g, l := exhaustive.AreaGainLoss(m, ar)
		v := gl{g, l}
		cache[ar] = v
		return v
	}
	best := math.Inf(-1)
	for _, areas := range enumerated {
		var v float64
		for _, ar := range areas {
			s := score(ar)
			v += p*s.g - (1-p)*s.l
		}
		if v > best {
			best = v
		}
	}
	return best
}

func TestOptimalityAgainstBruteForce(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(42))
	ps := []float64{0, 0.1, 0.3, 0.5, 0.7, 0.9, 1}
	for trial := 0; trial < 8; trial++ {
		m := randomModel2(t, rng, paths2x2, 3)
		in := mustInput(t, m, Options{})
		s := in.NewSolver()
		enumerated := exhaustive.EnumerateSpatiotemporal(m.H.Root, 0, m.NumSlices()-1, 0)
		for _, p := range ps {
			pt, err := s.RunContext(ctx, p)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			want := bruteBest(m, enumerated, p)
			if math.Abs(pt.PIC-want) > 1e-9*(1+math.Abs(want)) {
				t.Errorf("trial %d p=%.1f: core pIC %.12f, brute force %.12f", trial, p, pt.PIC, want)
			}
			// And the partition's own pIC, recomputed from first
			// principles, must equal what the algorithm reports.
			got := exhaustive.PartitionPIC(m, pt, p)
			if math.Abs(pt.PIC-got) > 1e-9*(1+math.Abs(got)) {
				t.Errorf("trial %d p=%.1f: reported pIC %.12f, first-principles %.12f", trial, p, pt.PIC, got)
			}
		}
	}
}

func TestOptimalityDeeperHierarchy(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	paths := []string{"A/m0/c0", "A/m0/c1", "A/m1/c0", "B/m2/c0", "B/m2/c1"}
	for trial := 0; trial < 4; trial++ {
		m := randomModel2(t, rng, paths, 3)
		in := mustInput(t, m, Options{})
		s := in.NewSolver()
		enumerated := exhaustive.EnumerateSpatiotemporal(m.H.Root, 0, m.NumSlices()-1, 0)
		for _, p := range []float64{0.2, 0.5, 0.8} {
			pt, err := s.RunContext(ctx, p)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			want := bruteBest(m, enumerated, p)
			if math.Abs(pt.PIC-want) > 1e-9*(1+math.Abs(want)) {
				t.Errorf("trial %d p=%.1f: core pIC %.12f, brute force %.12f", trial, p, pt.PIC, want)
			}
		}
	}
}

func TestPartitionIsValid(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(3))
	m := randomModel2(t, rng, paths2x2, 6)
	in := mustInput(t, m, Options{})
	s := in.NewSolver()
	for _, p := range []float64{0, 0.25, 0.5, 0.75, 1} {
		pt, err := s.RunContext(ctx, p)
		if err != nil {
			t.Fatalf("run(%v): %v", p, err)
		}
		if err := pt.Validate(m.H, m.NumSlices()); err != nil {
			t.Errorf("p=%v: invalid partition: %v", p, err)
		}
	}
}

func TestPZeroHasZeroLoss(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		m := randomModel2(t, rng, paths2x2, 5)
		pt, err := mustInput(t, m, Options{}).NewSolver().RunContext(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		// At p=0 the criterion is −loss; the microscopic partition has
		// loss 0, so the optimum must too.
		if pt.Loss > 1e-9 {
			t.Errorf("trial %d: p=0 partition has loss %g", trial, pt.Loss)
		}
	}
}

func TestHomogeneousModelFullyAggregates(t *testing.T) {
	ctx := context.Background()
	m := buildModel(t, paths2x2, []string{"u", "v"}, 5, func(x, s, ti int) float64 {
		if x == 0 {
			return 0.3
		}
		return 0.6
	})
	in := mustInput(t, m, Options{})
	s := in.NewSolver()
	for _, p := range []float64{0, 0.5, 1} {
		pt, err := s.RunContext(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		if !pt.IsFullAggregation(m.H, m.NumSlices()) {
			t.Errorf("p=%v: homogeneous model produced %d areas, want the single root area", p, pt.NumAreas())
		}
		if pt.Loss > 1e-9 {
			t.Errorf("p=%v: homogeneous aggregation lost %g bits", p, pt.Loss)
		}
	}
}

func TestGainLossMonotoneInP(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(19))
	m := randomModel2(t, rng, paths2x2, 6)
	in := mustInput(t, m, Options{})
	s := in.NewSolver()
	prevGain, prevLoss := math.Inf(-1), math.Inf(-1)
	for p := 0.0; p <= 1.0001; p += 0.05 {
		pt, err := s.RunContext(ctx, math.Min(p, 1))
		if err != nil {
			t.Fatal(err)
		}
		// Standard trade-off-curve property: as p grows, the optimal
		// partition's gain and loss are both non-decreasing.
		if pt.Gain < prevGain-1e-9 {
			t.Errorf("p=%.2f: gain decreased %.12f -> %.12f", p, prevGain, pt.Gain)
		}
		if pt.Loss < prevLoss-1e-9 {
			t.Errorf("p=%.2f: loss decreased %.12f -> %.12f", p, prevLoss, pt.Loss)
		}
		prevGain, prevLoss = pt.Gain, pt.Loss
	}
}

func TestEvaluateAreaMatchesFirstPrinciples(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := randomModel2(t, rng, paths2x2, 4)
	in := mustInput(t, m, Options{})
	for _, n := range m.H.Nodes {
		for i := 0; i < m.NumSlices(); i++ {
			for j := i; j < m.NumSlices(); j++ {
				ar := partition.Area{Node: n, I: i, J: j}
				g1, l1 := in.EvaluateArea(ar)
				g2, l2 := exhaustive.AreaGainLoss(m, ar)
				if math.Abs(g1-g2) > 1e-9 || math.Abs(l1-l2) > 1e-9 {
					t.Errorf("area %v: core (g=%g,l=%g) vs exhaustive (g=%g,l=%g)", ar, g1, l1, g2, l2)
				}
			}
		}
	}
}

func TestLossNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	m := randomModel2(t, rng, paths2x2, 5)
	in := mustInput(t, m, Options{})
	for _, n := range m.H.Nodes {
		for i := 0; i < m.NumSlices(); i++ {
			for j := i; j < m.NumSlices(); j++ {
				_, l := in.EvaluateArea(partition.Area{Node: n, I: i, J: j})
				if l < -1e-9 {
					t.Errorf("area (%s,[%d,%d]) has negative loss %g", n.Path, i, j, l)
				}
			}
		}
	}
}

func TestMicroAreasHaveZeroGainAndLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	m := randomModel2(t, rng, paths2x2, 4)
	in := mustInput(t, m, Options{})
	for _, leaf := range m.H.Leaves {
		for ti := 0; ti < m.NumSlices(); ti++ {
			g, l := in.EvaluateArea(partition.Area{Node: leaf, I: ti, J: ti})
			if math.Abs(g) > 1e-12 || math.Abs(l) > 1e-12 {
				t.Errorf("microscopic area (%s,%d): gain=%g loss=%g, want 0,0", leaf.Path, ti, g, l)
			}
		}
	}
}

func TestDescribe(t *testing.T) {
	m := buildModel(t, paths2x2, []string{"u", "v"}, 4, func(x, s, ti int) float64 {
		if x == 0 {
			return 0.7
		}
		return 0.2
	})
	in := mustInput(t, m, Options{})
	info := in.Describe(partition.Area{Node: m.H.Root, I: 0, J: 3})
	if info.Mode != 0 {
		t.Errorf("mode = %d, want 0", info.Mode)
	}
	if math.Abs(info.Rho[0]-0.7) > 1e-12 || math.Abs(info.Rho[1]-0.2) > 1e-12 {
		t.Errorf("rho = %v, want [0.7 0.2]", info.Rho)
	}
	wantAlpha := 0.7 / 0.9
	if math.Abs(info.Alpha-wantAlpha) > 1e-12 {
		t.Errorf("alpha = %g, want %g", info.Alpha, wantAlpha)
	}
}

func TestDescribeIdleArea(t *testing.T) {
	m := buildModel(t, paths2x2, []string{"u", "v"}, 3, func(x, s, ti int) float64 { return 0 })
	in := mustInput(t, m, Options{})
	info := in.Describe(partition.Area{Node: m.H.Root, I: 0, J: 2})
	if info.Mode != -1 || info.Alpha != 0 {
		t.Errorf("idle area: mode=%d alpha=%g, want -1, 0", info.Mode, info.Alpha)
	}
}

func TestNormalizationReachesSamePartitions(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(37))
	m := randomModel2(t, rng, paths2x2, 5)
	plain := mustInput(t, m, Options{})
	norm := mustInput(t, m, Options{Normalize: true})
	// Normalization is an exact reparametrization: the normalized run at p
	// must produce the same partition as the plain run at EffectiveP(p).
	for p := 0.0; p <= 1.0; p += 0.01 {
		np, err := norm.NewSolver().RunContext(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		pp, err := plain.NewSolver().RunContext(ctx, norm.EffectiveP(p))
		if err != nil {
			t.Fatal(err)
		}
		if np.Signature() != pp.Signature() {
			t.Errorf("normalized p=%.2f (effective %.4f) differs from plain run", p, norm.EffectiveP(p))
		}
	}
	// And EffectiveP must be a monotone bijection of [0,1].
	prev := -1.0
	for p := 0.0; p <= 1.0; p += 0.05 {
		ep := norm.EffectiveP(p)
		if ep < prev {
			t.Errorf("EffectiveP not monotone at p=%.2f", p)
		}
		prev = ep
	}
	if norm.EffectiveP(0) != 0 || norm.EffectiveP(1) != 1 {
		t.Errorf("EffectiveP endpoints: got (%g, %g), want (0, 1)", norm.EffectiveP(0), norm.EffectiveP(1))
	}
}

func TestRunRejectsBadP(t *testing.T) {
	ctx := context.Background()
	m := buildModel(t, paths2x2, []string{"u"}, 3, func(x, s, ti int) float64 { return 0.5 })
	in := mustInput(t, m, Options{})
	s := in.NewSolver()
	for _, p := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := s.RunContext(ctx, p); err == nil {
			t.Errorf("Run(%v) succeeded, want error", p)
		}
	}
}

func TestSignificantPs(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(41))
	m := randomModel2(t, rng, paths2x2, 6)
	in := mustInput(t, m, Options{})
	points, err := in.SignificantPsContext(ctx, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 2 {
		t.Fatalf("got %d significant points, want at least microscopic + aggregated", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i].P < points[i-1].P {
			t.Errorf("points not sorted: %v after %v", points[i].P, points[i-1].P)
		}
		if points[i].Signature == points[i-1].Signature {
			t.Errorf("duplicate partition at indices %d-%d", i-1, i)
		}
	}
	// Area counts should globally shrink from the first to the last point.
	if points[0].Areas <= points[len(points)-1].Areas {
		t.Errorf("expected more areas at low p (%d) than at high p (%d)", points[0].Areas, points[len(points)-1].Areas)
	}
}

func TestSingleResourceMatchesTemporalDP(t *testing.T) {
	ctx := context.Background()
	// With a single resource the spatiotemporal problem degenerates to
	// pure temporal partitioning; cross-check against brute force over
	// interval compositions scored from first principles.
	rng := rand.New(rand.NewSource(43))
	m := randomModel2(t, rng, []string{"only"}, 6)
	in := mustInput(t, m, Options{})
	s := in.NewSolver()
	leaf := m.H.Leaves[0]
	for _, p := range []float64{0.2, 0.5, 0.8} {
		pt, err := s.RunContext(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := exhaustive.BestTemporal(m.NumSlices(), func(i, j int) float64 {
			g, l := exhaustive.AreaGainLoss(m, partition.Area{Node: leaf, I: i, J: j})
			return p*g - (1-p)*l
		})
		// The root and its single leaf describe identical areas; the
		// algorithm may answer with either node, the value must match.
		if math.Abs(pt.PIC-want) > 1e-9*(1+math.Abs(want)) {
			t.Errorf("p=%v: core %.12f, temporal brute force %.12f", p, pt.PIC, want)
		}
	}
}

func TestSingleSliceMatchesSpatialDFS(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(47))
	m := randomModel2(t, rng, paths2x2, 1)
	in := mustInput(t, m, Options{})
	s := in.NewSolver()
	for _, p := range []float64{0.2, 0.5, 0.8} {
		pt, err := s.RunContext(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := exhaustive.BestSpatial(m.H.Root, func(n *hierarchy.Node) float64 {
			g, l := exhaustive.AreaGainLoss(m, partition.Area{Node: n, I: 0, J: 0})
			return p*g - (1-p)*l
		})
		if math.Abs(pt.PIC-want) > 1e-9*(1+math.Abs(want)) {
			t.Errorf("p=%v: core %.12f, spatial brute force %.12f", p, pt.PIC, want)
		}
	}
}

func TestInputCells(t *testing.T) {
	m := buildModel(t, paths2x2, []string{"u"}, 4, func(x, s, ti int) float64 { return 0.1 })
	in := mustInput(t, m, Options{})
	// 7 nodes (root + 2 clusters + 4 leaves) × T(T+1)/2 = 10 cells.
	if got, want := in.InputCells(), 7*10; got != want {
		t.Errorf("InputCells = %d, want %d", got, want)
	}
}

func TestDeterminism(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(59))
	m := randomModel2(t, rng, paths2x2, 5)
	s1, s2 := mustInput(t, m, Options{}).NewSolver(), mustInput(t, m, Options{}).NewSolver()
	p1, err := s1.RunContext(ctx, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s2.RunContext(ctx, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Signature() != p2.Signature() {
		t.Error("two inputs over the same model disagree")
	}
	// Re-running on the same solver (scratch reuse) must also agree.
	p3, err := s1.RunContext(ctx, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	p4, err := s1.RunContext(ctx, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	_ = p3
	if p4.Signature() != p1.Signature() {
		t.Error("re-running at the same p after another p changed the result")
	}
}

// mustInput runs the input pass under a background context, failing the
// test on error.
func mustInput(tb testing.TB, m *microscopic.Model, opt Options) *Input {
	tb.Helper()
	in, err := NewInputContext(context.Background(), m, opt)
	if err != nil {
		tb.Fatal(err)
	}
	return in
}
