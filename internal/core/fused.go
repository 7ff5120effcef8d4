package core

import (
	"context"

	"ocelotl/internal/measures"
	"ocelotl/internal/partition"
)

// MaxLanes is the widest fused lane block a Solver carries through one
// triangular iteration: RunManyContext partitions its p list into blocks of
// at most this many lanes. The width trades per-lane efficiency (wider
// blocks amortize more of the DP control flow, index arithmetic and
// gain/loss traffic) against the per-node working set — a block holds
// MaxLanes·(8+4) bytes per triangle cell of pIC/cut state, which at 16
// lanes keeps a |T| ≈ 50 node's live rows inside L2 — and against sweep
// granularity across workers (the sweep layer shrinks blocks below this cap
// when splitting them over more workers is the better trade).
const MaxLanes = 16

// RunManyContext executes Algorithm 1 once per entry of ps on this solver
// and returns the optimal partitions in input order, each bit-identical to
// a separate RunContext(ctx, p). The ps are solved in fused lane blocks of
// up to MaxLanes values: one triangular iteration per hierarchy node reads
// each cell's gain/loss and child offsets once and updates every lane in
// the inner add-compare loop, instead of re-streaming the whole arena once
// per p. That amortizes the DP control flow and memory traffic across the
// block, which is what makes wide p-sweeps (quality curves, the
// significant-p dichotomy) cheap per query.
//
// ctx is checked once per hierarchy node (the same cadence as RunContext,
// though a fused node iteration is up to MaxLanes single-p iterations of
// work), and a cancelled call returns ctx.Err() with no partitions — never
// a result slice with solved lanes next to holes. The lane scratch is
// grown on first use and retained for reuse, exactly like the pIC/cut
// scratch.
func (s *Solver) RunManyContext(ctx context.Context, ps []float64) ([]*partition.Partition, error) {
	if err := validatePs(ps); err != nil {
		return nil, err
	}
	out := make([]*partition.Partition, len(ps))
	for lo := 0; lo < len(ps); lo += MaxLanes {
		hi := lo + MaxLanes
		if hi > len(ps) {
			hi = len(ps)
		}
		if err := s.runLanes(ctx, ps[lo:hi], out[lo:hi]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// validatePs rejects any p outside [0,1] (or NaN) before a multi-p solve
// starts, so a bad entry fails the whole call up front instead of the
// fused kernel computing nonsense for it. Every multi-p entry point
// (RunManyContext, SweepRunContext) runs it.
func validatePs(ps []float64) error {
	for _, p := range ps {
		if err := validateP(p); err != nil {
			return err
		}
	}
	return nil
}

// runLanes solves one lane block (1 ≤ len(ps) ≤ MaxLanes) into out. The ps
// must already be validated. A single-entry block takes the plain
// single-p path — one lane carries no fusion to amortize.
func (s *Solver) runLanes(ctx context.Context, ps []float64, out []*partition.Partition) error {
	if len(ps) == 1 {
		pt, err := s.RunContext(ctx, ps[0])
		if err != nil {
			return err
		}
		out[0] = pt
		return nil
	}
	K := len(ps)
	s.ensureLanes(K)
	var eff [MaxLanes]float64
	for k, p := range ps {
		eff[k] = s.in.effectiveP(p)
	}
	iterate := func(id int) { s.iterateCellsLanes(id, K, &eff) }
	if s.Workers > 1 {
		sem := make(chan struct{}, s.Workers)
		s.walkParallel(ctx, s.in.rootID, sem, iterate)
	} else {
		s.walk(ctx, s.in.rootID, iterate)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for k, p := range ps {
		pt := &partition.Partition{P: p}
		s.recoverLane(s.in.rootID, 0, s.in.T-1, k, K, pt)
		pt.PIC = measures.PIC(eff[k], pt.Gain, pt.Loss)
		pt.Sort()
		out[k] = pt
	}
	return nil
}

// ensureLanes sizes the lane arenas for a K-lane block. The first fused
// use allocates exactly the requested width — a many-core sweep that
// splits into narrow blocks (laneWidth) never pays for lanes it won't
// use — but a solver that widens a second time jumps straight to the
// MaxLanes cap: a widening caller is almost always the dichotomy, whose
// rounds keep growing, and one jump beats re-zeroing the arena per
// round. The scratch is retained across runs; pooled solvers keep it for
// the Input's lifetime, so MemoryBytes accounts it.
func (s *Solver) ensureLanes(K int) {
	need := len(s.in.gain) * K
	if cap(s.lanePic) < need {
		alloc := need
		if cap(s.lanePic) > 0 {
			alloc = len(s.in.gain) * MaxLanes
		}
		if s.pooled {
			s.in.laneBytes.Add(int64(alloc-cap(s.lanePic)) * (8 + 4))
		}
		s.lanePic = make([]float64, alloc)
		s.laneCut = make([]int32, alloc)
	}
	s.lanePic = s.lanePic[:need]
	s.laneCut = s.laneCut[:need]
}

// iterateCellsLanes is the fused triangular iteration of Algorithm 1 for
// one node and K p-lanes: the lane arenas hold one K-wide strip per
// triangle cell (row-major, like the gain/loss triangles), so every
// alternative of the single-p iteration becomes K contiguous add-compares
// against per-lane cached thresholds. Per lane the sequence of float
// operations and strict comparisons is exactly iterateCells' — same
// no-cut initialization, same child-order spatial sum, same temporal-cut
// order — so each lane's pIC and cut matrices are bit-identical to a
// single-p solve at that p.
func (s *Solver) iterateCellsLanes(id, K int, eff *[MaxLanes]float64) {
	in := s.in
	T := in.T
	off := in.offs[id]
	gain := in.gain[off : off+in.cells]
	loss := in.loss[off : off+in.cells]
	pic := s.lanePic[off*K : (off+in.cells)*K]
	cuts := s.laneCut[off*K : (off+in.cells)*K]
	childOffs := in.meta[id].childOffs
	p := eff[:K:K]
	var qa, best, thr, sums [MaxLanes]float64
	var bestCutA [MaxLanes]int32
	q := qa[:K:K]
	for k := range p {
		q[k] = 1 - p[k]
	}
	bst, th, bestCut := best[:K:K], thr[:K:K], bestCutA[:K:K]
	for i := T - 1; i >= 0; i-- {
		base := i*T - i*(i-1)/2  // triIndex(i, i)
		nextBase := base + T - i // triIndex(i+1, i+1)
		rowPic := pic[base*K:]
		for j := i; j < T; j++ {
			idx := base + (j - i)
			g, l := gain[idx], loss[idx]
			for k := range bst {
				b := p[k]*g - q[k]*l // no cut
				bst[k], th[k], bestCut[k] = b, improveThr(b), int32(j)
			}
			if len(childOffs) > 0 { // spatial cut?
				sm := sums[:K:K]
				for k := range sm {
					sm[k] = 0
				}
				for _, co := range childOffs {
					cb := (co + idx) * K
					cp := s.lanePic[cb : cb+K : cb+K]
					for k := range sm {
						sm[k] += cp[k]
					}
				}
				for k := range sm {
					if sm[k] > th[k] {
						bst[k], th[k], bestCut[k] = sm[k], improveThr(sm[k]), CutSpatial
					}
				}
			}
			// Temporal cuts: the left parts pic[(i, cut)] walk the row-i
			// strips of rowPic contiguously; the right parts
			// pic[(cut+1, j)] advance by T-cut-2 strips per step — the
			// single-p kernel's affine walk, times K lanes per strip.
			rIdx := nextBase + (j - i - 1)
			for cut := i; cut < j; cut++ {
				lb := (cut - i) * K
				lp := rowPic[lb : lb+K : lb+K]
				rb := rIdx * K
				rp := pic[rb : rb+K : rb+K]
				for k := range lp {
					if v := lp[k] + rp[k]; v > th[k] {
						bst[k], th[k], bestCut[k] = v, improveThr(v), int32(cut)
					}
				}
				rIdx += T - cut - 2
			}
			ob := idx * K
			op := pic[ob : ob+K : ob+K]
			oc := cuts[ob : ob+K : ob+K]
			for k := range op {
				op[k], oc[k] = bst[k], bestCut[k]
			}
		}
	}
}

// recoverLane walks lane k's cut matrix (stride K strips) from
// (node, [i,j]) down to the aggregates of that lane's optimal partition,
// mirroring the single-p recover.
func (s *Solver) recoverLane(id, i, j, k, K int, pt *partition.Partition) {
	in := s.in
	idx := in.offs[id] + in.triIndex(i, j)
	switch c := s.laneCut[idx*K+k]; {
	case c == int32(j): // aggregate of the partition
		pt.Areas = append(pt.Areas, partition.Area{Node: in.meta[id].node, I: i, J: j})
		pt.Gain += in.gain[idx]
		pt.Loss += in.loss[idx]
	case c == CutSpatial:
		for _, child := range in.meta[id].children {
			s.recoverLane(int(child), i, j, k, K, pt)
		}
	default: // temporal cut at c
		s.recoverLane(id, i, int(c), k, K, pt)
		s.recoverLane(id, int(c)+1, j, k, K, pt)
	}
}
