package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"ocelotl/internal/timeslice"
)

// request is one query a client sends: an endpoint over a window given as
// lo/hi/slices/pan (the server's grid-exact navigation form) or as the
// trace's live window.
type request struct {
	Endpoint string // "aggregate" or "quality"
	Live     bool
	Lo, Hi   float64
	Slices   int
	Pan      int
	P        float64 // aggregate
	Ps       string  // quality: comma-separated p list
}

// fmtFloat prints a float64 so that parsing it back gives the same bits.
func fmtFloat(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// path renders the request's URL path and query for trace id.
func (r request) path(id string) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "/traces/%s/%s?", id, r.Endpoint)
	if r.Live {
		b.WriteString("live=1")
	} else {
		fmt.Fprintf(&b, "lo=%s&hi=%s&slices=%d&pan=%d", fmtFloat(r.Lo), fmtFloat(r.Hi), r.Slices, r.Pan)
	}
	switch r.Endpoint {
	case "aggregate":
		fmt.Fprintf(&b, "&p=%s", fmtFloat(r.P))
	case "quality":
		fmt.Fprintf(&b, "&ps=%s", r.Ps)
	}
	return b.String()
}

// window is the slicer the server resolves a non-live request to.
func (r request) window() (timeslice.Slicer, error) {
	sl, err := timeslice.New(r.Lo, r.Hi, r.Slices)
	if err != nil {
		return sl, err
	}
	if r.Pan != 0 {
		sl = sl.Shift(r.Pan)
	}
	return sl, nil
}

// generator produces one client's request sequence; it is driven by a
// seeded RNG, so the same seed gives the same sequence.
type generator interface {
	next() request
}

// sample is one measured request.
type sample struct {
	client, seq int
	req         request
	at          time.Duration // send time, from the start of the phase
	lat         time.Duration
	failed      bool
	why         string // failure reason
	build       string // X-Ocelotl-Build
	buildUs     int64  // X-Ocelotl-Build-Us
	hash        uint64 // body hash (0 when failed)
	win         windowJSON
	offset      int64 // follow-live: the trace's published offset at send
}

// windowJSON is the window a response body reports.
type windowJSON struct {
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Slices int     `json:"slices"`
}

// bodySeed hashes response bodies; comparisons only happen within one
// process, so a per-process seed is fine.
var bodySeed = maphash.MakeSeed()

// clientTimeout bounds one request; hitting it is a failed attempt.
const clientTimeout = 10 * time.Second

// phaseConfig shapes one closed-loop measured phase.
type phaseConfig struct {
	base    string
	traceID string
	gens    []generator
	// seconds is the nominal length; the phase also runs until minSamples
	// requests finished (so p99 is supported), but never past 3× seconds.
	seconds    time.Duration
	minSamples int
	think      time.Duration
	// before runs on the client goroutine just before a request is sent
	// (follow-live reads the published offset here).
	before func(client int, s *sample)
}

// runPhase runs one closed loop per generator against the server and
// returns every sample, in completion order per client. The clients stop
// when the phase ends or ctx is cancelled, and have exited on return.
func runPhase(ctx context.Context, hc *http.Client, pc phaseConfig) []sample {
	start := time.Now()
	var (
		mu       sync.Mutex
		all      []sample
		finished int
	)
	done := func() bool {
		mu.Lock()
		n := finished
		mu.Unlock()
		el := time.Since(start)
		return el >= 3*pc.seconds || (el >= pc.seconds && n >= pc.minSamples)
	}
	var wg sync.WaitGroup
	for c, g := range pc.gens {
		wg.Add(1)
		go func(c int, g generator) {
			defer wg.Done()
			var buf bytes.Buffer
			var mine []sample
			for seq := 0; ctx.Err() == nil && !done(); seq++ {
				s := sample{client: c, seq: seq, req: g.next()}
				s.at = time.Since(start)
				if pc.before != nil {
					pc.before(c, &s)
				}
				do(ctx, hc, pc.base, pc.traceID, &s, &buf)
				if ctx.Err() != nil {
					break // interrupted: the request did not fail on its own
				}
				mine = append(mine, s)
				mu.Lock()
				finished++
				mu.Unlock()
				if pc.think > 0 {
					time.Sleep(pc.think)
				}
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(c, g)
	}
	wg.Wait()
	return all
}

// do sends one request and fills in s: latency, build headers,
// body hash, and whether it failed. A failure is a non-200, a transport
// error or timeout, a degraded preview instead of the answer, or a body
// that is not the trace's JSON answer.
func do(ctx context.Context, hc *http.Client, base, id string, s *sample, buf *bytes.Buffer) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+s.req.path(id), nil)
	if err != nil {
		s.failed, s.why = true, err.Error()
		return
	}
	t0 := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		s.lat = time.Since(t0)
		s.failed, s.why = true, "transport: "+err.Error()
		return
	}
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	s.lat = time.Since(t0)
	s.build = resp.Header.Get("X-Ocelotl-Build")
	s.buildUs, _ = strconv.ParseInt(resp.Header.Get("X-Ocelotl-Build-Us"), 10, 64)
	switch {
	case err != nil:
		s.failed, s.why = true, "reading body: "+err.Error()
	case resp.StatusCode != http.StatusOK:
		s.failed, s.why = true, fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	case resp.Header.Get("X-Ocelotl-Degraded") != "":
		s.failed, s.why = true, "degraded: "+resp.Header.Get("X-Ocelotl-Degraded")
	case !wellFormed(buf.Bytes(), id):
		s.failed, s.why = true, "malformed body"
	}
	if s.failed {
		return
	}
	s.hash = maphash.Bytes(bodySeed, buf.Bytes())
	if s.req.Live {
		var w struct {
			Window windowJSON `json:"window"`
		}
		if err := json.Unmarshal(buf.Bytes(), &w); err != nil {
			s.failed, s.why = true, "decoding live window: "+err.Error()
			return
		}
		s.win = w.Window
	}
}

// wellFormed is the check every response gets: the JSON answer of the
// right trace, complete. Byte-level correctness is checked after the run
// against a scratch server (verify.go).
func wellFormed(body []byte, id string) bool {
	return bytes.HasPrefix(body, []byte(`{"trace":"`+id+`",`)) && bytes.HasSuffix(body, []byte("}\n"))
}

// revisitMismatches checks that every non-live URL answered the same
// bytes every time it was asked during the run: a revisit served from the
// cache must equal the first answer.
func revisitMismatches(samples []sample, id string) []string {
	first := map[string]uint64{}
	var bad []string
	for _, s := range samples {
		if s.failed || s.req.Live {
			continue
		}
		u := s.req.path(id)
		h, ok := first[u]
		if !ok {
			first[u] = s.hash
			continue
		}
		if h != s.hash {
			bad = append(bad, "revisit answered different bytes: "+u)
		}
	}
	return bad
}
