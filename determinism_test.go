package stabledispatch

// The cost-plane worker pool is a pure throughput knob: every worker
// writes a disjoint preallocated row whose values depend only on the
// frame's inputs, so the dispatch schedule cannot depend on scheduling.
// This table test pins that contract end to end — a seeded Boston day
// slice must produce byte-identical lifecycle events, KPI rows, and
// outcome records for every worker count, across the paper's stable
// dispatchers, the sharing dispatchers, and a baseline. The fleet is
// scarce (30 taxis for the day slice's demand), so frames carry a
// backlog and the matchings are contested.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"stabledispatch/internal/dispatch"
	"stabledispatch/internal/exp"
	"stabledispatch/internal/pref"
	"stabledispatch/internal/share"
	"stabledispatch/internal/sim"
	"stabledispatch/internal/trace"
	"stabledispatch/internal/tseries"
)

// deterministicSeries are the KPI columns whose values are functions of
// the simulation state alone. frame_ns and allocs measure the host and
// are excluded; cache_hit_rate is excluded because under a capacity-
// bound road cache the hit/miss split can legitimately vary with the
// interleaving of parallel fills (the distances themselves cannot).
var deterministicSeries = []string{
	"delay_mean", "delay_p95", "pass_diss_mean", "taxi_diss_mean",
	"served", "queued", "expired", "shared_rides", "degraded_frames",
	"stability_violations",
}

// runFingerprint executes one simulation and serialises everything the
// worker count must not change: the JSONL event stream, the
// deterministic KPI columns, and the full outcome records.
func runFingerprint(t *testing.T, d sim.Dispatcher, workers int) []byte {
	t.Helper()
	o := exp.QuickOptions()
	o.Frames = 60
	o.VolumeScale = 1
	reqs, taxis, err := exp.Workload(trace.Boston(), 13500, 30, o)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	var events bytes.Buffer
	kpi := tseries.New(tseries.Config{Capacity: 4 * o.Frames})
	s, err := sim.New(sim.Config{
		Params:         pref.DefaultParams(),
		Dispatcher:     d,
		PatienceFrames: o.PatienceMinutes,
		Events:         sim.NewJSONLSink(&events),
		KPI:            kpi,
		Workers:        workers,
	}, taxis, reqs)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	var out bytes.Buffer
	out.Write(events.Bytes())
	if err := tseries.WriteCSV(&out, kpi.Snapshot(), deterministicSeries); err != nil {
		t.Fatalf("kpi csv: %v", err)
	}
	fmt.Fprintf(&out, "requests %+v\n", rep.Requests)
	fmt.Fprintf(&out, "episodes %+v\n", rep.Episodes)
	fmt.Fprintf(&out, "assignments %+v\n", rep.Assignments)
	return out.Bytes()
}

// goldenFingerprints pins the serial fingerprint of every algorithm in
// the table as a SHA-256, so a change to the matching kernels or the
// preference construction that alters a single event, KPI value or
// outcome fails here, not only one that breaks worker-count
// independence. Update a hash only for a change meant to alter the
// simulation's outputs.
//
// The -P and -T hashes coincide. For NSTD they must: the §IV-A model
// is additively separable (the request ranks by D(t,r^s), the taxi by
// D(t,r^s) minus a request-only term), so a rotation between two stable
// matchings would need D11+D22 < D12+D21 and D12+D21 < D11+D22 at once,
// and every frame's stable matching is unique. The traced-frame goldens
// in internal/dispatch tell the two proposal orders apart.
var goldenFingerprints = map[string]string{
	"NSTD-P": "1c16229f8286d889f7e6d28e917bcfec229f61e72626e36c2ce0198607121978",
	"NSTD-T": "1c16229f8286d889f7e6d28e917bcfec229f61e72626e36c2ce0198607121978",
	"STD-P":  "c7bd4da16164206cac8bf29c56e7226a762a4de2475699ec668df72a431be500",
	"STD-T":  "c7bd4da16164206cac8bf29c56e7226a762a4de2475699ec668df72a431be500",
	"Greedy": "fc9b2a257530d130af2cbb2cc17fddbe100d02a24ca4cd73b203fda7ab22ae36",
}

func TestWorkerCountDeterminism(t *testing.T) {
	packCfg := share.PackConfig{Theta: 5, MaxGroupSize: 3, PairRadius: 10}
	algos := []struct {
		name string
		make func() sim.Dispatcher
	}{
		{"NSTD-P", func() sim.Dispatcher { return dispatch.NewNSTDP() }},
		{"NSTD-T", func() sim.Dispatcher { return dispatch.NewNSTDT() }},
		{"STD-P", func() sim.Dispatcher { return dispatch.NewSTDP(packCfg) }},
		{"STD-T", func() sim.Dispatcher { return dispatch.NewSTDT(packCfg) }},
		{"Greedy", func() sim.Dispatcher { return dispatch.NewGreedy() }},
	}
	for _, algo := range algos {
		t.Run(algo.name, func(t *testing.T) {
			want := runFingerprint(t, algo.make(), 1)
			if len(want) == 0 {
				t.Fatal("serial run produced an empty fingerprint")
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(want)); got != goldenFingerprints[algo.name] {
				t.Errorf("serial fingerprint sha256 = %s, want golden %s", got, goldenFingerprints[algo.name])
			}
			for _, workers := range []int{4, 16} {
				got := runFingerprint(t, algo.make(), workers)
				if !bytes.Equal(got, want) {
					t.Errorf("workers=%d diverged from workers=1: fingerprints differ (%d vs %d bytes)",
						workers, len(got), len(want))
				}
			}
		})
	}
}
