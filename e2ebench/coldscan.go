package main

import "math/rand"

// scanParams shapes the cold-scan request stream over a trace of duration
// [0, end].
type scanParams struct {
	end              float64
	fracs            []float64 // window lengths, as a share of the trace
	slices           []int     // |T| values
	sweepEvery       int       // every sweepEvery-th request is a /quality sweep
	panEvery         int       // one request in panEvery pans the previous window
	pMin, pMax, pInc float64
}

// scanGen draws windows that never repeat: a (length, |T|) shape from the
// grid fracs × slices at a random offset, so requests are scratch builds
// from the event index. The exception is one request in panEvery, which
// nudges the previous window one slice on:
// an analyst scrolling after a jump, derived from the cached window with
// only the new slice read from the index. Shapes are dealt from seeded
// permutations of the whole grid, one deck for aggregates and one for
// sweeps, so every run sends the same mix of window sizes whatever the
// seed; only their order and offsets change.
type scanGen struct {
	sp          scanParams
	rng         *rand.Rand
	n           int
	aggs, sweep deck
	prev        request // the last aggregate window
}

// deck deals the indices 0..size-1 in seeded random order, reshuffling
// once all have been dealt.
type deck struct {
	order []int
	next  int
}

func (d *deck) deal(rng *rand.Rand, size int) int {
	if d.next == len(d.order) {
		d.order, d.next = rng.Perm(size), 0
	}
	d.next++
	return d.order[d.next-1]
}

func newScanGen(sp scanParams, seed int64) *scanGen {
	return &scanGen{sp: sp, rng: rand.New(rand.NewSource(seed))}
}

func (g *scanGen) next() request {
	g.n++
	steps := int((g.sp.pMax-g.sp.pMin)/g.sp.pInc) + 1
	p := g.sp.pMin + g.sp.pInc*float64(g.rng.Intn(steps))
	if g.n%g.sp.panEvery == g.sp.panEvery/2 && g.prev.Slices > 0 {
		r := g.prev
		r.Pan, r.P = 1, p
		return r
	}
	grid := len(g.sp.fracs) * len(g.sp.slices)
	endpoint, d := "aggregate", &g.aggs
	if g.n%g.sp.sweepEvery == 0 {
		endpoint, d = "quality", &g.sweep
	}
	shape := d.deal(g.rng, grid)
	frac := g.sp.fracs[shape%len(g.sp.fracs)]
	lo := g.rng.Float64() * (1 - frac) * g.sp.end
	r := request{
		Endpoint: endpoint,
		Lo:       lo,
		Hi:       lo + frac*g.sp.end,
		Slices:   g.sp.slices[shape/len(g.sp.fracs)],
	}
	if endpoint == "quality" {
		r.Ps = sweepPs16
		return r
	}
	r.P = p
	g.prev = r
	return r
}
