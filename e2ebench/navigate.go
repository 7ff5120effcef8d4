package main

import (
	"math/rand"
	"strings"
)

// navParams shapes a Traveler-style navigation session over a trace of
// duration [0, end].
type navParams struct {
	end float64
	// slices are the |T| values of successive sessions: every client
	// cycles through all of them in a seeded order, so each run carries
	// the same mix of window sizes whatever the seed.
	slices           []int
	levels           int // zoom levels 0..levels-1; level l spans end/2^l
	sessionSteps     int // requests per session before a fresh overview
	sweepStep        int // the session step that is a /quality sweep
	revisitHistory   int // exact revisits draw from this many recent URLs
	mixRevisit       int // mix weights, out of their sum
	mixSlider        int
	mixPan           int
	mixZoom          int
	sweepPs          string
	pMin, pMax, pInc float64
}

// sweepPs16 is the p list of a /quality request: 16 slider positions.
var sweepPs16 = func() string {
	ps := make([]string, 16)
	for i := range ps {
		ps[i] = fmtFloat(float64(i+1) * 0.05)
	}
	return strings.Join(ps, ",")
}()

// navGen is one analyst's session: a window on a zoom level's grid (the
// level's anchor [0, end/2^level] with |T| slices, shifted by pos slices),
// a p value, and the recent requests. Each step is an exact revisit, a
// p-slider move, a 1-slice pan or a zoom to the next level in or out; one
// step per session (sweepStep) is a /quality sweep of the current window.
type navGen struct {
	np      navParams
	rng     *rand.Rand
	n       int // |T| of this session
	level   int
	pos     int
	dir     int // pan direction, kept for a few steps like a user scrolling
	p       float64
	steps   int
	history []request
	sizes   deck // deals the index into slices of each new session
}

func newNavGen(np navParams, seed int64) *navGen {
	g := &navGen{np: np, rng: rand.New(rand.NewSource(seed))}
	g.newSession()
	return g
}

func (g *navGen) newSession() {
	g.n = g.np.slices[g.sizes.deal(g.rng, len(g.np.slices))]
	g.level, g.pos, g.dir, g.steps = 0, 0, 1, 0
	g.p = g.np.pMin + g.np.pInc*float64(g.rng.Intn(int((g.np.pMax-g.np.pMin)/g.np.pInc)+1))
	g.history = g.history[:0]
}

// maxPos is the last pan position that keeps the window inside the trace
// at the current level.
func (g *navGen) maxPos() int { return (1<<g.level - 1) * g.n }

func (g *navGen) current(endpoint string) request {
	r := request{
		Endpoint: endpoint,
		Lo:       0,
		Hi:       g.np.end / float64(int(1)<<g.level),
		Slices:   g.n,
		Pan:      g.pos,
	}
	if endpoint == "aggregate" {
		r.P = g.p
	} else {
		r.Ps = g.np.sweepPs
	}
	return r
}

func (g *navGen) next() request {
	if g.steps >= g.np.sessionSteps {
		g.newSession()
	}
	g.steps++
	if g.steps == 1 {
		return g.remember(g.current("aggregate"))
	}
	if g.steps == g.np.sweepStep {
		return g.current("quality")
	}
	total := g.np.mixRevisit + g.np.mixSlider + g.np.mixPan + g.np.mixZoom
	x := g.rng.Intn(total)
	switch {
	case x < g.np.mixRevisit && len(g.history) > 0:
		return g.history[g.rng.Intn(len(g.history))]
	case x < g.np.mixRevisit+g.np.mixSlider:
		g.moveSlider()
	case x < g.np.mixRevisit+g.np.mixSlider+g.np.mixPan:
		g.pan()
	default:
		g.zoom()
	}
	return g.remember(g.current("aggregate"))
}

func (g *navGen) moveSlider() {
	step := g.np.pInc
	if g.rng.Intn(2) == 0 {
		step = -step
	}
	p := g.p + step
	if p < g.np.pMin-1e-9 || p > g.np.pMax+1e-9 {
		p = g.p - step
	}
	// Snap to the slider's grid so revisits of a p are exact repeats.
	g.p = g.np.pMin + g.np.pInc*float64(int((p-g.np.pMin)/g.np.pInc+0.5))
}

func (g *navGen) pan() {
	if g.maxPos() == 0 {
		g.zoom() // the overview cannot pan: zoom in instead
		return
	}
	if g.rng.Intn(4) == 0 {
		g.dir = -g.dir
	}
	pos := g.pos + g.dir
	if pos < 0 || pos > g.maxPos() {
		g.dir = -g.dir
		pos = g.pos + g.dir
	}
	g.pos = pos
}

// zoom moves one level in (the centre half of the window, at twice the
// resolution) or out (the window centred on this one at half the
// resolution).
func (g *navGen) zoom() {
	in := g.level == 0 || (g.level < g.np.levels-1 && g.rng.Intn(2) == 0)
	if in {
		g.level++
		g.pos = 2*g.pos + g.n/2
	} else {
		g.level--
		g.pos = g.pos/2 - g.n/4
	}
	g.pos = max(0, min(g.pos, g.maxPos()))
}

func (g *navGen) remember(r request) request {
	g.history = append(g.history, r)
	if len(g.history) > g.np.revisitHistory {
		g.history = g.history[1:]
	}
	return r
}
