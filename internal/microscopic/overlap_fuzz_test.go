package microscopic

import (
	"math"
	"testing"

	"ocelotl/internal/timeslice"
)

// These fuzzers pin the window arithmetic every reuse decision rides on
// (the serving cache, Input.UpdateContext's overlap verification, the CLI
// replay) against brute-force oracles: ShiftOverlap against literal index
// enumeration, GridOverlap against bit-exact slice-boundary comparison. The
// seed corpus lives under testdata/fuzz; CI runs each fuzzer briefly
// (-fuzztime=10s) as a smoke pass.

// FuzzShiftOverlap checks the k-pan overlap of a |T|-slice window against
// an integer oracle: new slice j shows old slice j+k, so the shared
// indices are exactly those with both j and j+k in [0, T).
func FuzzShiftOverlap(f *testing.F) {
	f.Add(30, 3)
	f.Add(30, -3)
	f.Add(10, 0)
	f.Add(10, 10)
	f.Add(10, -10)
	f.Add(1, 1)
	f.Add(7, -6)
	f.Add(0, 5)
	f.Fuzz(func(t *testing.T, T, k int) {
		if T < 0 || T > 2048 {
			t.Skip("oracle loops over T")
		}
		ov := ShiftOverlap(T, k)

		// Oracle: enumerate the shared indices in int64 (j+k must not
		// wrap for extreme fuzzed k).
		wantW := 0
		firstOld, firstNew := -1, -1
		for j := 0; j < T; j++ {
			old := int64(j) + int64(k)
			if old >= 0 && old < int64(T) {
				if wantW == 0 {
					firstOld, firstNew = int(old), j
				}
				wantW++
			}
		}

		if ov.W != wantW {
			t.Fatalf("ShiftOverlap(%d, %d).W = %d, oracle says %d", T, k, ov.W, wantW)
		}
		if wantW == 0 {
			if ov != (SliceOverlap{}) {
				t.Fatalf("ShiftOverlap(%d, %d) = %+v, want the zero overlap", T, k, ov)
			}
			return
		}
		if ov.OldLo != firstOld || ov.NewLo != firstNew {
			t.Fatalf("ShiftOverlap(%d, %d) = %+v, oracle says OldLo=%d NewLo=%d", T, k, ov, firstOld, firstNew)
		}
		if got := ov.Shift(); got != k {
			t.Fatalf("ShiftOverlap(%d, %d).Shift() = %d, want k back", T, k, got)
		}
		for i := 0; i < ov.W; i++ {
			oldI, newI := ov.OldLo+i, ov.NewLo+i
			if oldI < 0 || oldI >= T || newI < 0 || newI >= T {
				t.Fatalf("ShiftOverlap(%d, %d) maps out of range at i=%d: old %d, new %d", T, k, i, oldI, newI)
			}
			if oldI-newI != k {
				t.Fatalf("ShiftOverlap(%d, %d) pair %d is off-diagonal: old %d, new %d", T, k, i, oldI, newI)
			}
		}
	})
}

// sanesSlicerParams bounds the fuzzed window parameters to a regime where
// the float grid is non-degenerate: finite, positive span, and magnitudes
// where base + off·w cannot absorb or overflow (the engine never sees
// windows outside this regime — trace times are seconds-scale floats).
func saneSlicerParams(start, span float64, n int) bool {
	return n >= 1 && n <= 256 &&
		!math.IsNaN(start) && !math.IsInf(start, 0) && math.Abs(start) <= 1e12 &&
		!math.IsNaN(span) && span >= 1e-9 && span <= 1e12
}

// FuzzGridOverlap fuzzes two windows — one derived from the other by an
// on-grid pan, one rebuilt independently — and checks GridOverlap both
// ways against the bit-exact boundary oracle:
//
//   - soundness (any pair): every slice pair the overlap claims shared
//     must have bit-identical boundary floats, because
//     Input.UpdateContext will copy matrix cells across on that promise;
//   - completeness (on-grid pair): a Shift-derived window must report
//     exactly the ShiftOverlap of its pan distance — the incremental path
//     must never degrade a legal pan to a rebuild.
func FuzzGridOverlap(f *testing.F) {
	f.Add(0.0, 10.0, 30, 0, 3, 0.0, 10.0, 30)
	f.Add(0.0, 10.0, 30, 2, -5, 0.0, 7.5, 30)
	f.Add(-4.25, 1.5, 7, -3, 11, -4.25, 1.5, 7)
	f.Add(1e9, 0.125, 64, 5, 5, 1e9, 0.125, 64)
	f.Add(0.1, 3.3, 10, 1, 2, 0.1, 3.3, 11)
	f.Fuzz(func(t *testing.T, start, span float64, n, kA, kB int, start2, span2 float64, n2 int) {
		if !saneSlicerParams(start, span, n) || !saneSlicerParams(start2, span2, n2) {
			t.Skip("degenerate window")
		}
		if kA < -(1<<20) || kA > 1<<20 || kB < -(1<<20) || kB > 1<<20 {
			t.Skip("pan distance out of the engine's regime")
		}
		base, err := timeslice.New(start, start+span, n)
		if err != nil {
			t.Skip(err)
		}
		old, new := base.Shift(kA), base.Shift(kB)

		// On-grid pair: soundness and completeness.
		ov := GridOverlap(old, new)
		want := ShiftOverlap(n, kB-kA)
		if ov != want {
			t.Fatalf("GridOverlap(shift %d, shift %d) = %+v, want ShiftOverlap(%d, %d) = %+v",
				kA, kB, ov, n, kB-kA, want)
		}
		assertOverlapSound(t, old, new, ov)

		// Independently built window: soundness only — GridOverlap is
		// allowed (required, even) to reject close-but-off-grid windows,
		// but anything it does claim must be bit-exact.
		other, err := timeslice.New(start2, start2+span2, n2)
		if err != nil {
			t.Skip(err)
		}
		assertOverlapSound(t, old, other, GridOverlap(old, other))
	})
}

// assertOverlapSound checks every slice pair an overlap claims shared has
// bit-identical boundaries in the two windows.
func assertOverlapSound(t *testing.T, old, new timeslice.Slicer, ov SliceOverlap) {
	t.Helper()
	if !ov.Shared() {
		return
	}
	if ov.OldLo < 0 || ov.NewLo < 0 || ov.OldLo+ov.W > old.N || ov.NewLo+ov.W > new.N {
		t.Fatalf("overlap %+v out of range for |T| = %d/%d", ov, old.N, new.N)
	}
	for i := 0; i < ov.W; i++ {
		oLo, oHi := old.Bounds(ov.OldLo + i)
		nLo, nHi := new.Bounds(ov.NewLo + i)
		if oLo != nLo || oHi != nHi {
			t.Fatalf("overlap %+v claims old slice %d == new slice %d, but bounds differ: [%v,%v) vs [%v,%v)",
				ov, ov.OldLo+i, ov.NewLo+i, oLo, oHi, nLo, nHi)
		}
	}
}
