package dispatch

import (
	"stabledispatch/internal/obs"
	"stabledispatch/internal/prof"
)

// Stage timing for the dispatch pipeline, one histogram series per
// stage of Algorithm 1/3 and the baselines:
//
//	idle_scan   — collecting the frame's idle fleet
//	cost_plane  — building (or memo-hitting) the frame's shared
//	              distance plane: spatial candidate pruning plus the
//	              parallel batched distance computation
//	pref_build  — preference construction from the plane: NSTD's
//	              sparse lists (pref.ListsFromPlane or
//	              pref.TaxiListsFromPlane), the sharing unit market
//	              and its lists (share.BuildMarketPlane, Market.Lists),
//	              or the enumerating extensions' dense market
//	              (pref.FromPlane)
//	cost_matrix — the baselines' request-major view of the plane
//	matching    — the stable matching (or baseline assignment) solve
//	packing     — Algorithm 3's feasible-group + set-packing stage
//
// cmd/dispatchd folds these into /v1/report and cmd/taxisim into its
// summary table.
var stageHists = map[string]*obs.Histogram{
	"idle_scan":   obs.GetOrCreateHistogram(`dispatch_stage_seconds{stage="idle_scan"}`),
	"cost_plane":  obs.GetOrCreateHistogram(`dispatch_stage_seconds{stage="cost_plane"}`),
	"pref_build":  obs.GetOrCreateHistogram(`dispatch_stage_seconds{stage="pref_build"}`),
	"cost_matrix": obs.GetOrCreateHistogram(`dispatch_stage_seconds{stage="cost_matrix"}`),
	"matching":    obs.GetOrCreateHistogram(`dispatch_stage_seconds{stage="matching"}`),
	"packing":     obs.GetOrCreateHistogram(`dispatch_stage_seconds{stage="packing"}`),
}

var obsAssignments = obs.GetOrCreateCounter("dispatch_assignments_total")

// obsDegraded counts frames the Resilient wrapper handed to its
// fallback dispatcher, by cause.
var obsDegraded = map[string]*obs.Counter{
	"deadline": obs.GetOrCreateCounter(`dispatch_degraded_frames_total{reason="deadline"}`),
	"panic":    obs.GetOrCreateCounter(`dispatch_degraded_frames_total{reason="panic"}`),
	"error":    obs.GetOrCreateCounter(`dispatch_degraded_frames_total{reason="error"}`),
}

// stageIdx maps the stage names to their prof ledger indices once, so
// the hot path pays a map lookup it was already paying for the
// histogram, not a linear name scan.
var stageIdx = map[string]int{
	"idle_scan":   prof.StageIdleScan,
	"cost_plane":  prof.StageCostPlane,
	"pref_build":  prof.StagePrefBuild,
	"cost_matrix": prof.StageCostMatrix,
	"matching":    prof.StageMatching,
	"packing":     prof.StagePacking,
}

// stageSpan is one stage measurement feeding both views: the rolling
// dispatch_stage_seconds histogram and, when a prof ledger is
// installed, the current frame's cost ledger.
type stageSpan struct {
	t obs.Timer
	p prof.Span
}

// ObserveDuration closes both sides of the span.
func (s stageSpan) ObserveDuration() {
	s.t.ObserveDuration()
	s.p.End()
}

// stageTimer starts a span against one of the named pipeline stages.
func stageTimer(stage string) stageSpan {
	return stageSpan{t: obs.StartTimer(stageHists[stage]), p: prof.Begin(stageIdx[stage])}
}
