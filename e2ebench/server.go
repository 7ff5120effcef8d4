package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"time"

	"ocelotl/internal/server"
)

// shutdownGrace bounds how long a server shutdown waits for in-flight
// requests; the benchmark's own clients have stopped by then.
const shutdownGrace = 10 * time.Second

// inproc is one ocelotld server running inside the benchmark process: the
// same server.New + Handler the daemon runs, behind a loopback listener.
type inproc struct {
	srv    *server.Server
	hs     *http.Server
	base   string // http://127.0.0.1:port
	served chan error
}

// quietLogger drops the per-request info lines the daemon would log; a
// benchmark that formats a log line per request measures the logger.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError}))
}

// startServer starts an in-process server on a 127.0.0.1:0 listener.
func startServer(cfg server.Config) (*inproc, error) {
	cfg.Logger = quietLogger()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := server.New(cfg)
	p := &inproc{
		srv:    s,
		hs:     &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { p.served <- p.hs.Serve(ln) }()
	return p, nil
}

// close shuts the server down in the daemon's order: follow loops first
// (no snapshot is published after this), then the HTTP server (waits for
// in-flight requests), then the trace indexes. It returns once Serve has
// returned.
func (p *inproc) close() error {
	p.srv.StopFollowers()
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	err := p.hs.Shutdown(ctx)
	if serr := <-p.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := p.srv.Registry().CloseAll(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// loadTrace POSTs /traces and expects 201.
func (p *inproc) loadTrace(ctx context.Context, hc *http.Client, body map[string]any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.base+"/traces", bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("POST /traces: %w", err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("POST /traces: status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return nil
}

// cacheStats reads /debug/cachestats.
func (p *inproc) cacheStats(ctx context.Context, hc *http.Client) (server.StatsSnapshot, error) {
	var st server.StatsSnapshot
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+"/debug/cachestats", nil)
	if err != nil {
		return st, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return st, fmt.Errorf("GET /debug/cachestats: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /debug/cachestats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// newHTTPClient returns a client with its own transport, so the caller
// can close its idle connections (and their goroutines) when done. No
// retries: a 503 is one failed attempt, not a reason to back off.
func newHTTPClient(timeout time.Duration) (*http.Client, *http.Transport) {
	tr := &http.Transport{
		MaxIdleConns:        4,
		MaxIdleConnsPerHost: 4,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &http.Client{Transport: tr, Timeout: timeout}, tr
}
