package main

import (
	"math"
	"reflect"
	"testing"
	"time"

	"ocelotl/internal/server"
	"ocelotl/internal/timeslice"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: percentile must sort
		}
		return xs
	}
	cases := []struct {
		n     int
		q     float64
		want  float64
		valid bool
	}{
		{1000, 0.99, 990, true}, // 10 samples (991..1000) beyond
		{999, 0.99, 990, false}, // 9 beyond
		{2000, 0.99, 1980, true},
		{21, 0.5, 11, true}, // 10 beyond the median
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
		{0, 0.5, 0, false},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.valid {
			t.Errorf("percentile(%d samples, %v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.valid)
		}
	}
}

func TestFailuresMissEveryPercentile(t *testing.T) {
	samples := make([]sample, 1000)
	for i := range samples {
		samples[i].lat = time.Millisecond
	}
	for i := 0; i < 11; i++ { // more failures than lie beyond p99
		samples[i].failed = true
	}
	v, ok := percentile(latencies(samples, nil), 0.99)
	if !ok || !math.IsInf(v, 1) {
		t.Fatalf("p99 with 11 failures in 1000 = %v, %v; want +Inf, true", v, ok)
	}
	if finite(v) != ms(clientTimeout) {
		t.Fatalf("finite(+Inf) = %v, want the client timeout", finite(v))
	}
	if supported(latencies(samples, nil), 0.5) != 1 {
		t.Fatalf("median moved by failures beyond it")
	}
}

// urls draws n requests from each workload's generators for seed and
// renders them.
func urls(t *testing.T, seed int64, n int) [][]string {
	in := &inputs{end: 70}
	var out [][]string
	for _, name := range []string{"navigate", "cold-scan"} {
		wl := workloads[name]
		for _, g := range wl.gens(in, nil, seed) {
			var seq []string
			for i := 0; i < n; i++ {
				seq = append(seq, g.next().path(wl.id))
			}
			out = append(out, seq)
		}
	}
	return out
}

func TestRequestSequenceDeterministic(t *testing.T) {
	a, b := urls(t, 7, 500), urls(t, 7, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different request sequences")
	}
	if reflect.DeepEqual(a, urls(t, 8, 500)) {
		t.Fatal("different seeds gave the same request sequences")
	}
	if reflect.DeepEqual(a[1], a[2]) {
		t.Fatal("the two cold-scan clients send the same windows")
	}
}

func TestLiveSequenceDeterministic(t *testing.T) {
	info := func() (server.FollowInfo, bool) { return server.FollowInfo{Lo: 0, Hi: 1, Slices: 30, Pan: 100}, true }
	draw := func(seed int64) []string {
		g := newLiveGen(info, seed)
		var seq []string
		for i := 0; i < 300; i++ {
			seq = append(seq, g.next().path("live"))
		}
		return seq
	}
	if !reflect.DeepEqual(draw(3), draw(3)) {
		t.Fatal("same seed gave different live request sequences")
	}
}

func TestNavigateStaysOnGrid(t *testing.T) {
	np := navParams{end: 70, slices: []int{20, 30}, levels: 4, sessionSteps: 40, sweepStep: 10,
		revisitHistory: 6, mixRevisit: 30, mixSlider: 25, mixPan: 30, mixZoom: 15,
		sweepPs: sweepPs16, pMin: 0.05, pMax: 0.95, pInc: 0.05}
	g := newNavGen(np, 1)
	for i := 0; i < 5000; i++ {
		r := g.next()
		sl, err := r.window()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if sl.Start < 0 || sl.End > 70*(1+1e-12) {
			t.Fatalf("request %d window [%v, %v] leaves the trace", i, sl.Start, sl.End)
		}
		if r.Endpoint == "aggregate" && (r.P < 0.05-1e-9 || r.P > 0.95+1e-9) {
			t.Fatalf("request %d: p=%v off the slider", i, r.P)
		}
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	// root [0,100] with children [10,30] and [20,50] (overlapping: cover
	// [10,50] once) and [90,120] (reaches past the root: counts [90,100]);
	// grandchild [15,25] under the first child.
	spans := []span{
		{ID: 1, Name: "bench.request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "microscopic.build_at", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "core.new_input", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "core.solve", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "eventstore.read", Start: 15, End: 25},
		{ID: 6, Name: "bench.tick", Start: 200, End: 210},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 50, 2: 10, 3: 30, 4: 30, 5: 10, 6: 10}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times = %v, want %v", self, want)
	}
	layers := layerSelfTimes(spans)
	wantLayers := map[string]time.Duration{"bench": 60, "microscopic": 10, "core": 60, "eventstore": 10}
	if !reflect.DeepEqual(layers, wantLayers) {
		t.Fatalf("layer self times = %v, want %v", layers, wantLayers)
	}
}

func TestSealedPanEndsAtOrBeforeHorizon(t *testing.T) {
	anchor, err := timeslice.New(0, 9.5*30/1500, 30)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []float64{0, 0.001, 0.5, 1.23456, 9.4999} {
		pan := sealedPan(anchor, h)
		if end := anchor.Shift(pan).End; end > h && pan > -anchor.N {
			t.Errorf("horizon %v: live window ends at %v, past it", h, end)
		}
		if anchor.Shift(pan+1).End <= h {
			t.Errorf("horizon %v: pan %d is not the last sealed window", h, pan)
		}
	}
}
