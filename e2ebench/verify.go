package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sort"
)

// pickEvery is the sampling rate of the output check: about one request
// in pickEvery is eligible, chosen by a hash of (seed, client, sequence
// number), so the same seed picks the same requests.
const pickEvery = 8

// pickSamples returns up to k successful samples, chosen by seed.
func pickSamples(samples []sample, seed int64, k int) []sample {
	sorted := append([]sample(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].client != sorted[j].client {
			return sorted[i].client < sorted[j].client
		}
		return sorted[i].seq < sorted[j].seq
	})
	var out []sample
	for _, s := range sorted {
		if len(out) == k {
			break
		}
		if !s.failed && mix(uint64(seed), uint64(s.client), uint64(s.seq))%pickEvery == 0 {
			out = append(out, s)
		}
	}
	return out
}

// mix is a splitmix64-style hash of its arguments.
func mix(xs ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, x := range xs {
		h ^= x + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// verifyAgainstScratch loads the workload's (finished) trace on a
// cache-disabled server and asks it every picked request, in the
// explicit form toExplicit gives; each answer must be byte-identical to
// the one measured. It returns how many were checked and the mismatches.
func verifyAgainstScratch(ctx context.Context, hc *http.Client, wl *workload, in *inputs, tmp string,
	picks []sample, toExplicit func(sample) (request, error)) (int, []string, error) {
	cfg := wl.config(tmp)
	cfg.CacheBytes = -1
	p, err := startServer(cfg)
	if err != nil {
		return 0, nil, err
	}
	defer p.close()
	if err := p.loadTrace(ctx, hc, map[string]any{"id": wl.id, "path": in.path}); err != nil {
		return 0, nil, err
	}
	var bad []string
	var buf bytes.Buffer
	for _, s := range picks {
		r, err := toExplicit(s)
		if err != nil {
			bad = append(bad, err.Error())
			continue
		}
		check := sample{req: r}
		do(ctx, hc, p.base, wl.id, &check, &buf)
		switch {
		case ctx.Err() != nil:
			return 0, nil, ctx.Err()
		case check.failed:
			bad = append(bad, fmt.Sprintf("scratch server failed %s: %s", r.path(wl.id), check.why))
		case check.hash != s.hash:
			bad = append(bad, fmt.Sprintf("%s (measured as %s) differs from the scratch answer to %s", s.req.path(wl.id), s.build, r.path(wl.id)))
		}
	}
	return len(picks), bad, nil
}
