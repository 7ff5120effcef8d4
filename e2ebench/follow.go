package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ocelotl/internal/server"
	"ocelotl/internal/timeslice"
	"ocelotl/internal/trace"
	"ocelotl/internal/traceio"
)

// countingWriter counts the bytes written through it, which after a flush
// is the file offset a follower has to reach to have read everything.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// flushRecord is one written batch: when it was due, when its flush
// returned, and the offset that flush made visible.
type flushRecord struct {
	due, flushed time.Time
	offset       int64
}

// liveWriter appends time-sorted events to a followed trace in flushed
// batches on a fixed schedule (an open loop: it never waits for the
// server). Batch k is due at start + k·period.
type liveWriter struct {
	w       traceio.Writer
	cw      *countingWriter
	closeFn func() error
	events  []trace.Event
	batch   int
	period  time.Duration

	// recs[:n] are published to the lag observer; recs is preallocated so
	// the writer never reallocates under a reader.
	recs []flushRecord
	n    atomic.Int64

	closeOnce sync.Once
	closeErr  error
}

// close closes the trace file once; run calls it when done, and a run
// that ended early calls it through abandon.
func (lw *liveWriter) close() error {
	lw.closeOnce.Do(func() { lw.closeErr = lw.closeFn() })
	return lw.closeErr
}

// abandon releases the file of a writer that may not have finished.
func (lw *liveWriter) abandon() { lw.close() }

func (lw *liveWriter) batches() int { return (len(lw.events) + lw.batch - 1) / lw.batch }

// run writes every batch and closes the file. It stops early only when
// ctx is cancelled.
func (lw *liveWriter) run(ctx context.Context, start time.Time) error {
	nb := lw.batches()
	for k := 0; k < nb; k++ {
		due := start.Add(time.Duration(k) * lw.period)
		if d := time.Until(due); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			case <-t.C:
			}
		}
		hi := min((k+1)*lw.batch, len(lw.events))
		for _, ev := range lw.events[k*lw.batch : hi] {
			if err := lw.w.WriteEvent(ev); err != nil {
				return fmt.Errorf("live writer: %w", err)
			}
		}
		if err := traceio.Flush(lw.w); err != nil {
			return fmt.Errorf("live writer: flush: %w", err)
		}
		lw.recs[k] = flushRecord{due: due, flushed: time.Now(), offset: lw.cw.n}
		lw.n.Store(int64(k + 1))
	}
	lw.events = nil
	return lw.close()
}

// finalOffset is the file size once every batch is written.
func (lw *liveWriter) finalOffset() int64 {
	if n := lw.n.Load(); n > 0 {
		return lw.recs[n-1].offset
	}
	return 0
}

// lateness returns how late each batch's flush started against its
// schedule, in ms. Flush time is included: a writer whose flushes stall
// is a starved generator too.
func (lw *liveWriter) lateness() []float64 {
	n := int(lw.n.Load())
	out := make([]float64, n)
	for k, r := range lw.recs[:n] {
		out[k] = ms(r.flushed.Sub(r.due))
	}
	return out
}

// lagObserver polls the followed trace's published offset in-process
// (no HTTP) and records, per written batch, the time from its flush to
// the first poll that saw the offset cover it.
type lagObserver struct {
	lags []float64 // ms, one per batch, in batch order
}

// observe polls every interval until ctx is cancelled or every batch of
// lw has been seen, and returns once it has stopped.
func (o *lagObserver) observe(ctx context.Context, reg *server.Registry, id string, lw *liveWriter, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	next := 0
	nb := lw.batches()
	for next < nb {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		tr, ok := reg.Get(id)
		if !ok {
			return
		}
		info := tr.Info()
		if info.Follow == nil {
			return
		}
		now := time.Now()
		written := int(lw.n.Load())
		for next < written && lw.recs[next].offset <= info.Follow.Offset {
			o.lags = append(o.lags, ms(now.Sub(lw.recs[next].flushed)))
			next++
		}
	}
}

// followInfo returns the followed trace's published live-window
// coordinates.
func followInfo(reg *server.Registry, id string) (server.FollowInfo, bool) {
	tr, ok := reg.Get(id)
	if !ok {
		return server.FollowInfo{}, false
	}
	info := tr.Info()
	if info.Follow == nil {
		return server.FollowInfo{}, false
	}
	return *info.Follow, true
}

// liveGen is the follow-live client: mostly live=1 aggregates at a
// drifting p, some revisits of sealed windows behind the live one (the
// live grid shifted back by a few slices, which the horizon rule keeps
// exact), and every sweepEvery-th request a live /quality sweep.
type liveGen struct {
	rng        *rand.Rand
	info       func() (server.FollowInfo, bool)
	n          int
	sweepEvery int
	revisitPct int
	maxBack    int
	p          float64
}

func newLiveGen(info func() (server.FollowInfo, bool), seed int64) *liveGen {
	return &liveGen{rng: rand.New(rand.NewSource(seed)), info: info, sweepEvery: 20, revisitPct: 20, maxBack: 24, p: 0.35}
}

func (g *liveGen) next() request {
	if g.n++; g.n%g.sweepEvery == 0 {
		return request{Endpoint: "quality", Live: true, Ps: sweepPs16}
	}
	switch g.rng.Intn(3) {
	case 0:
		g.p = math.Max(0.05, g.p-0.05)
	case 1:
		g.p = math.Min(0.95, g.p+0.05)
	}
	g.p = math.Round(g.p*20) / 20
	if g.rng.Intn(100) < g.revisitPct {
		if fi, ok := g.info(); ok {
			back := 1 + g.rng.Intn(g.maxBack)
			return request{Endpoint: "aggregate", Lo: fi.Lo, Hi: fi.Hi, Slices: fi.Slices, Pan: fi.Pan - back, P: g.p}
		}
	}
	return request{Endpoint: "aggregate", Live: true, P: g.p}
}

// explicitLive turns a live request into the explicit window its body
// reported, on the trace's anchored live grid: the request any server,
// including a batch load of the finished file, answers with the same
// bytes.
func explicitLive(s sample, fi server.FollowInfo) (request, error) {
	anchor, err := timeslice.New(fi.Lo, fi.Hi, fi.Slices)
	if err != nil {
		return request{}, err
	}
	k0 := int(math.Round((s.win.Start - anchor.Start) / anchor.Width()))
	for _, k := range []int{k0, k0 - 1, k0 + 1} {
		sl := anchor.Shift(k)
		if sl.Start == s.win.Start && sl.End == s.win.End && sl.N == s.win.Slices {
			r := s.req
			r.Live, r.Lo, r.Hi, r.Slices, r.Pan = false, fi.Lo, fi.Hi, fi.Slices, k
			return r, nil
		}
	}
	return request{}, fmt.Errorf("live window [%v, %v] is not on the anchored grid", s.win.Start, s.win.End)
}

// waitConverged waits until the follower has published the writer's final
// offset.
func waitConverged(ctx context.Context, reg *server.Registry, id string, want int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		fi, ok := followInfo(reg, id)
		if ok && fi.Offset >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower did not converge: offset %d of %d after %v", fi.Offset, want, timeout)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// joinAll runs fns concurrently and returns once all have returned.
func joinAll(fns ...func()) {
	var wg sync.WaitGroup
	for _, f := range fns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
	}
	wg.Wait()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
