package ocelotl

import (
	"context"
	"testing"

	"ocelotl/internal/core"
	"ocelotl/internal/eventstore"
	"ocelotl/internal/microscopic"
	"ocelotl/internal/mpisim"
	"ocelotl/internal/timeslice"
)

// The out-of-core store benchmarks: build cost (the one-time price paid at
// trace load for O(window) reads forever after) and the read side, both at
// the store layer (windowed chunk reads) and end-to-end (a 1-slice pan
// through a disk-backed Reslicer, the disk counterpart of
// BenchmarkWindowPan_Incremental — their gap is the price of out-of-core).

// BenchmarkStoreBuild measures indexing the window-benchmark trace into
// the on-disk store: stream, external sort, delta-encode, write, reopen.
func BenchmarkStoreBuild(b *testing.B) {
	tr := mpisim.ArtificialSized(windowBenchS, windowBenchW)
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := microscopic.NewReslicerIndexed(microscopic.TraceSource(tr),
			microscopic.IndexOptions{Mode: microscopic.IndexDisk, Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreWindowRead measures a windowed read: every series, a 2%
// time window, cold decoded-chunk cache (so the chunk pruning and decode
// are what is timed, not cache hits). chunks/op reports how many chunks
// the directory let the read touch.
func BenchmarkStoreWindowRead(b *testing.B) {
	tr := mpisim.ArtificialSized(windowBenchS, windowBenchW)
	r, err := microscopic.NewReslicerIndexed(microscopic.TraceSource(tr),
		microscopic.IndexOptions{
			Mode: microscopic.IndexDisk, Dir: b.TempDir(),
			// No decoded-chunk cache: each iteration pays the real
			// pread + decode for the window it asks for.
			Store: eventstore.Options{ChunkCacheBytes: -1},
		})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	start, end := tr.Window()
	w := (end - start) * 0.02
	before := r.IndexReadStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := start + float64(i%49)/50*(end-start-w)
		sl, err := timeslice.New(lo, lo+w, windowBenchT)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.BuildAt(sl); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	after := r.IndexReadStats()
	b.ReportMetric(float64(after.ChunksRead-before.ChunksRead)/float64(b.N), "chunks/op")
	b.ReportMetric(float64(after.BytesRead-before.BytesRead)/float64(b.N), "readB/op")
}

// BenchmarkWindowPan_DiskIndex ping-pongs a 1-slice pan through a
// disk-backed Reslicer — BenchmarkWindowPan_Incremental with the RAM
// index swapped for the store, so the delta over it is the cost of going
// out-of-core on the interactive path.
func BenchmarkWindowPan_DiskIndex(b *testing.B) {
	ctx := context.Background()
	tr := mpisim.ArtificialSized(windowBenchS, windowBenchW)
	r, err := microscopic.NewReslicerIndexed(microscopic.TraceSource(tr),
		microscopic.IndexOptions{Mode: microscopic.IndexDisk, Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	m, err := r.Build(microscopic.Options{Slices: windowBenchT})
	if err != nil {
		b.Fatal(err)
	}
	in := mustInput(b, m, core.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := 1
		if i%2 == 1 {
			d = -1
		}
		if in, err = in.AdvanceContext(ctx, in.Model.Reslicer(), d); err != nil {
			b.Fatal(err)
		}
	}
}
