package server

import (
	"fmt"
	"net/http"
)

// handleMetrics serves the cache counters in the Prometheus text
// exposition format (version 0.0.4). The counters are already monotonic
// atomics and the format is plain text, so no client library is needed —
// the daemon stays dependency-free while any standard scraper can watch
// the pyramid's zoom hit rate (ocelotl_zoom_derived_total vs
// ocelotl_zoom_scratch_total) and the cache's pressure counters.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := s.CacheStats()
	type metric struct {
		name, help, typ string
		value           int64
	}
	metrics := []metric{
		{"ocelotl_cache_hits_total", "Window requests served from the exact cached entry.", "counter", snap.Hits},
		{"ocelotl_cache_misses_total", "Window requests that started a build flight.", "counter", snap.Misses},
		{"ocelotl_cache_coalesced_total", "Requests that piggybacked on an identical in-flight build.", "counter", snap.Coalesced},
		{"ocelotl_cache_derived_builds_total", "Builds served by incremental derivation from a cached neighbor.", "counter", snap.Derived},
		{"ocelotl_cache_scratch_builds_total", "Builds that went to the event index.", "counter", snap.Scratch},
		{"ocelotl_cache_evictions_total", "Entries evicted by the byte budget.", "counter", snap.Evictions},
		{"ocelotl_cache_aborted_total", "Requests abandoned on context cancellation.", "counter", snap.Aborted},
		{"ocelotl_cache_rejected_total", "Windows rejected by the admission guard before building (413).", "counter", snap.Rejected},
		{"ocelotl_shed_total", "Requests shed by the build gate (503 + Retry-After).", "counter", snap.Shed},
		{"ocelotl_degraded_total", "Requests answered with the coarse preview after a slow or faulted fine build.", "counter", snap.Degraded},
		{"ocelotl_panics_total", "Panics recovered on the serve path (flight builds and handlers).", "counter", snap.Panics},
		{"ocelotl_zoom_derived_total", "Resolution changes served by derivation from the warm ladder level.", "counter", snap.ZoomDerived},
		{"ocelotl_zoom_scratch_total", "Resolution changes that fell through to the event index.", "counter", snap.ZoomScratch},
		{"ocelotl_previews_total", "Refine requests answered with a coarse covering preview.", "counter", snap.Previews},
		{"ocelotl_sweep_queries_total", "Multi-p requests served through the fused sweep path.", "counter", snap.SweepQueries},
		{"ocelotl_sweep_ps_total", "Total p points answered by fused sweeps.", "counter", snap.SweepPs},
		{"ocelotl_answer_hits_total", "Solves served from a cached window's answer memo.", "counter", snap.AnswerHits},
		{"ocelotl_follow_ticks_total", "Follow-mode ingestion ticks that carried events.", "counter", snap.FollowTicks},
		{"ocelotl_follow_events_total", "Events ingested by follow-mode ticks.", "counter", snap.FollowEvents},
		{"ocelotl_follow_reorders_total", "Out-of-order follow batches that forced a generation bump and cache purge.", "counter", snap.FollowReorders},
		{"ocelotl_follow_retries_total", "Backed-off retries on the follow paths (tail opens and failed ticks).", "counter", snap.FollowRetries},
		{"ocelotl_checkpoints_total", "Manifest checkpoints written by the durable-state keeper.", "counter", snap.Checkpoints},
		{"ocelotl_recovered_orphans_total", "Stale temp and unreferenced store files swept at recovery.", "counter", snap.RecoveredOrphans},
		{"ocelotl_quarantined_total", "Corrupt manifests and store files moved aside by recovery and scrub.", "counter", snap.Quarantined},
		{"ocelotl_cache_entries", "Cached window Inputs resident now.", "gauge", int64(snap.Entries)},
		{"ocelotl_cache_bytes", "Bytes of cached Input arenas resident now.", "gauge", snap.Bytes},
		{"ocelotl_cache_budget_bytes", "Configured cache byte budget.", "gauge", snap.BudgetBytes},
		{"ocelotl_index_bytes", "Event indexes' fixed residency (RAM arrays or disk chunk directories), distinct from Input bytes.", "gauge", snap.IndexBytes},
		{"ocelotl_index_open_chunk_bytes", "Disk indexes' decoded-chunk cache residency.", "gauge", snap.IndexOpenChunkBytes},
		{"ocelotl_index_chunks_read_total", "Store chunks fetched and decoded from disk.", "counter", snap.IndexChunksRead},
		{"ocelotl_index_chunk_hits_total", "Chunk reads served from the decoded-chunk cache.", "counter", snap.IndexChunkHits},
		{"ocelotl_index_bytes_read_total", "Bytes of chunk payload read from disk.", "counter", snap.IndexBytesRead},
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	for _, m := range metrics {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", m.name, m.help, m.name, m.typ, m.name, m.value)
	}
}
