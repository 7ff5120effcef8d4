// Serving-layer benchmarks: end-to-end latency of one aggregate request
// through the HTTP handler, split by cache build path. BenchmarkServerPan
// is the serving counterpart of BenchmarkWindowPan — the same 1-slice pan
// measured with the registry, window cache, singleflight, JSON encoding
// and HTTP framing around it:
//
//   - Hit:     the exact window is cached and the p repeats, so the
//     answer comes from the window's answer memo (steady-state re-query);
//   - HitNewP: the exact window is cached but every p is new, so each
//     request solves on the cached Input;
//   - Derived: each request pans one slice further, so every window is a
//     miss served incrementally from its cached neighbor
//     (Input.UpdateContext);
//   - Scratch: caching disabled, every request pays the full input pass.
//
// scripts/bench.sh picks these up with the rest of the root suite, so
// BENCH_core.json tracks serving latency across PRs.
package ocelotl

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"ocelotl/internal/mpisim"
	"ocelotl/internal/server"
)

// newBenchServer starts a server preloaded with the windowing benchmark
// trace (|S|=96 leaves, windows of |T|=50 slices).
func newBenchServer(b *testing.B, cacheBytes int64) *httptest.Server {
	b.Helper()
	s := server.New(server.Config{
		CacheBytes:     cacheBytes,
		RequestTimeout: time.Minute,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if _, err := s.Registry().LoadTrace("bench", mpisim.ArtificialSized(windowBenchS, windowBenchW)); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(ts.Close)
	return ts
}

func benchGet(b *testing.B, url string) {
	b.Helper()
	resp, err := http.Get(url)
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("%s: status %d", url, resp.StatusCode)
	}
}

func BenchmarkServerPan_Hit(b *testing.B) {
	ts := newBenchServer(b, server.DefaultCacheBytes)
	url := fmt.Sprintf("%s/traces/bench/aggregate?p=0.5&slices=%d", ts.URL, windowBenchT)
	benchGet(b, url) // prime the window
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGet(b, url)
	}
}

// BenchmarkServerPan_HitNewP hits the cached window with a fresh p on
// every request, so each one misses the window's answer memo and pays the
// full solve (BenchmarkServerPan_Hit, which repeats one p, measures the
// memo hit instead).
func BenchmarkServerPan_HitNewP(b *testing.B) {
	ts := newBenchServer(b, server.DefaultCacheBytes)
	base := fmt.Sprintf("%s/traces/bench/aggregate?slices=%d", ts.URL, windowBenchT)
	benchGet(b, base+"&p=0.5") // prime the window
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Distinct float bits near 0.5: a new memo key, the same solve cost.
		p := 0.5 + float64(i+1)*1e-12
		benchGet(b, base+"&p="+strconv.FormatFloat(p, 'g', -1, 64))
	}
}

func BenchmarkServerPan_Derived(b *testing.B) {
	ts := newBenchServer(b, server.DefaultCacheBytes)
	base := fmt.Sprintf("%s/traces/bench/aggregate?p=0.5&slices=%d", ts.URL, windowBenchT)
	benchGet(b, base) // anchor window
	b.ResetTimer()
	// Each request pans one slice further: always a fresh window whose
	// nearest cached neighbor overlaps on |T|-1 slices.
	for i := 0; i < b.N; i++ {
		benchGet(b, fmt.Sprintf("%s&pan=%d", base, i+1))
	}
}

func BenchmarkServerPan_Scratch(b *testing.B) {
	ts := newBenchServer(b, -1) // caching disabled: every request rebuilds
	url := fmt.Sprintf("%s/traces/bench/aggregate?p=0.5&slices=%d&pan=1", ts.URL, windowBenchT)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGet(b, url)
	}
}

// The server zoom pair is the serving counterpart of BenchmarkWindowZoom:
// each request changes resolution (overview level ↔ zoomed level), panned
// a little each time so the cache never has the exact window.
//
//   - Pyramid: both levels are warm in the ladder, so every zoom is a
//     miss served by same-grid derivation from its level's resident;
//   - Scratch: caching disabled, every zoom pays the full input pass.
func benchServerZoom(b *testing.B, cacheBytes int64) {
	_, _, in := windowCase(b)
	lo, hi := in.Model.Slicer.IntervalBounds(10, 19)
	ts := newBenchServer(b, cacheBytes)
	over := fmt.Sprintf("%s/traces/bench/aggregate?p=0.5&slices=%d", ts.URL, windowBenchT)
	zoom := fmt.Sprintf("%s&lo=%g&hi=%g", over, lo, hi)
	benchGet(b, over) // warm both levels (no-ops for the scratch server)
	benchGet(b, zoom)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := zoom
		if i%2 == 1 {
			u = over
		}
		benchGet(b, fmt.Sprintf("%s&pan=%d", u, 1+i%3))
	}
}

func BenchmarkServerZoom_Pyramid(b *testing.B) { benchServerZoom(b, server.DefaultCacheBytes) }
func BenchmarkServerZoom_Scratch(b *testing.B) { benchServerZoom(b, -1) }
