package server

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"ocelotl/internal/mpisim"
)

// FuzzAggregateQuery throws arbitrary p/lo/hi/slices/pan/refine values at
// /aggregate on a small loaded trace. Whatever the query, the server must
// not panic and must answer from the documented set for a healthy,
// unloaded daemon: 200, 400 (bad parameter) or 413 (window over budget)
// — never a 5xx.
func FuzzAggregateQuery(f *testing.F) {
	cfg := quietConfig()
	cfg.MaxSlices = 48 // keeps every admissible solve cheap
	s := New(cfg)
	if _, err := s.Registry().LoadTrace("art", mpisim.ArtificialSized(12, 20)); err != nil {
		f.Fatal(err)
	}
	h := s.Handler()

	// The seed corpus lives in testdata/fuzz/FuzzAggregateQuery.
	f.Fuzz(func(t *testing.T, p, lo, hi, slices, pan, refine string) {
		q := url.Values{}
		for name, v := range map[string]string{"p": p, "lo": lo, "hi": hi, "slices": slices, "pan": pan, "refine": refine} {
			if v != "" {
				q.Set(name, v)
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/traces/art/aggregate?"+q.Encode(), nil))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("%s: status %d: %s", q.Encode(), rec.Code, rec.Body.String())
		}
	})
}
