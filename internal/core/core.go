// Package core implements the paper's primary contribution (§III.E): the
// exact spatiotemporal aggregation algorithm that computes, for a given
// gain/loss trade-off ratio p, a hierarchy-and-order-consistent partition
// of S×T maximizing the parametrized Information Criterion (Eq. 4).
//
// The engine is split along the paper's two phases:
//
//   - Input (input.go) is the immutable result of the input pass: the
//     gain and loss of every candidate area of A(S×T) = H(S)×I(T), stored
//     as flat arena-backed triangular matrices (one T(T+1)/2-cell triangle
//     per hierarchy node, addressed through a per-node offset table).
//     Building it costs O(|X|·|S|·|T| + |X|·|H(S)|·|T|²) time and
//     O(|H(S)|·|T|²) space; once built it is never written again.
//
//   - Solver (solver.go) owns the pIC/cut scratch of one Algorithm 1
//     query, costing O(|S|·|T|³) time per RunContext(ctx, p). Any number
//     of Solvers share one Input concurrently, and one Solver can fuse
//     many queries: RunManyContext (fused.go) carries up to MaxLanes
//     p-lanes through a single triangular iteration per node — each cell
//     reads its gain/loss and child offsets once and updates every lane in
//     the inner add-compare loop — bit-identically per lane to separate
//     RunContext calls. The sweep layer (sweep.go: SweepRunContext,
//     SweepQualityContext, SignificantPsContext) builds on it: sweeps
//     partition their ps into lane blocks over the worker pool, and the
//     significant-p dichotomy solves each frontier generation as one
//     fused batch per round.
//
// Window changes are incremental (update.go): Input.UpdateContext — and
// Input.Zoom and Input.AdvanceContext over a microscopic.Reslicer-built
// model — derives the next window's Input from the current one, copying
// everything the surviving slices pin down and recomputing only the
// O(Δ·|T|) cells per node that touch new slices, bit-identically to a
// fresh build.
//
// Resolution changes are incremental too (pyramid.go): Pyramid keeps the
// most recent Input resident per slice-width grid level, so a zoom back
// to a visited resolution resolves as a hit or a same-grid pan before
// touching the event index — UpdateContext's economics extended across
// the resolution axis. Input.CoarsenContext derives the overview one
// level up by slice-pair merging (microscopic.Model.MergePairs),
// bit-identical to NewInputContext on the merged model and free of any
// event-index pass; it feeds preview responses, never cache entries that
// promise equality with a scratch build at the coarse grid
// (boundary-spanning events split-then-sum differently there, so the last
// ulp can differ). The layering is deliberate: timeslice names the grids
// (Grid/CoarsenGrid), microscopic merges models, core derives Inputs and
// keys the ladder, and the serving layer adds byte budgets, singleflight
// and progressive delivery on top.
//
// Every long-running engine call takes a context.Context as its first
// parameter and has no context-free variant: callers without a deadline
// pass context.Background(). The context serves callers whose work can
// become worthless mid-flight — a serving layer whose request timed out, a
// CLI hit by SIGINT. Cancellation is cooperative at hierarchy-node
// granularity: a cancelled call stops launching work, aborts in-flight
// solves at their next node boundary, joins every goroutine it spawned,
// returns every pooled solver, and reports ctx.Err() with no partial
// results (a cancelled fused sweep never returns solved lanes next to
// holes). The input pass itself is cancellable the same way:
// NewInputContext and UpdateContext check their ctx once per node inside
// the matrix fill, so an abandoned large-|T| build dies mid-fill. A
// never-cancelled context costs only a nil-check per node.
package core

// CutSpatial is the cut-matrix marker for a spatial cut (the area is
// partitioned into its node's children over the same interval).
const CutSpatial = int32(-1)
