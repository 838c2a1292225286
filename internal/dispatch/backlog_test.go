package dispatch

import (
	"runtime"
	"testing"

	"stabledispatch/internal/costplane"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/pref"
	"stabledispatch/internal/sim"
	"stabledispatch/internal/stable"
	"stabledispatch/internal/trace"
)

// backlogCities are the two backlog frames: New York, the backlog
// workload's city, where 14% of the frame's pairs are mutually
// acceptable, and compact Boston, where the 10 km pickup threshold
// covers most of the city and 60% are.
var backlogCities = []trace.City{trace.NewYork(), trace.Boston()}

// backlogFrame is a rush-hour backlog frame: 3000 pending requests
// against 200 idle taxis under the paper's parameters.
func backlogFrame(tb testing.TB, city trace.City) *sim.Frame {
	tb.Helper()
	reqs, err := trace.Generate(trace.Config{City: city, Frames: 60, RequestsPerDay: 5000 * 24, Seats: 3, Seed: 9})
	if err != nil {
		tb.Fatal(err)
	}
	if len(reqs) < 3000 {
		tb.Fatalf("generated %d requests, want 3000", len(reqs))
	}
	taxis, err := trace.Taxis(city, 200, 10)
	if err != nil {
		tb.Fatal(err)
	}
	f := &sim.Frame{Requests: reqs[:3000], Metric: geo.EuclidMetric, Params: pref.DefaultParams(), Workers: 1}
	for _, tx := range taxis {
		f.Taxis = append(f.Taxis, sim.TaxiView{ID: tx.ID, Pos: tx.Pos, Seats: tx.Seats, Idle: true})
	}
	return f
}

// BenchmarkNSTDBacklogFrame measures one whole NSTD dispatch of each
// backlog frame — idle scan, pruned cost plane, preference lists and
// deferred acceptance — single-threaded. Every iteration gets a fresh
// frame, so the frame's plane memo does not carry over.
func BenchmarkNSTDBacklogFrame(b *testing.B) {
	for _, city := range backlogCities {
		base := backlogFrame(b, city)
		for _, d := range []*NSTD{NewNSTDP(), NewNSTDT()} {
			b.Run(city.Name+"/"+d.Name(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					f := &sim.Frame{Requests: base.Requests, Taxis: base.Taxis, Metric: base.Metric, Params: base.Params, Workers: 1}
					if out, err := d.Dispatch(f); err != nil || len(out) == 0 {
						b.Fatalf("Dispatch: %d assignments, %v", len(out), err)
					}
				}
			})
		}
	}
}

// TestBacklogKernelAllocations bounds what list build plus matching
// allocate for each backlog frame once its plane exists: one 24-byte
// entry per mutually acceptable pair, one bit per cell for the build's
// bitmap, and per-index bookkeeping. That stays under the dense market
// it replaces (two float64 and two bool R×T matrices, 18 B a cell)
// unless three in four pairs are acceptable, and under one dense
// float64 matrix (8 B a cell) on the sparse New York frame. Boston's
// frame, 60% acceptable, needs 8.6 MB of entries: more than one float64
// matrix, less than the dense market's 10.8 MB.
func TestBacklogKernelAllocations(t *testing.T) {
	const r, tn = 3000, 200
	for _, city := range backlogCities {
		f := backlogFrame(t, city)
		pl := f.CostPlane(idleFleet(f), costplane.Config{PruneRadius: f.Params.MaxPickup})
		for _, k := range []struct {
			name  string
			build func(*costplane.Plane, pref.Params) (pref.Lists, error)
			match func(*pref.Lists, *stable.Observer) stable.Matching
		}{
			{"NSTD-P", pref.ListsFromPlane, stable.PassengerOptimalLists},
			{"NSTD-T", pref.TaxiListsFromPlane, stable.TaxiOptimalLists},
		} {
			var pairs int
			var m stable.Matching
			bytes := allocatedBytes(func() {
				lists, err := k.build(pl, f.Params)
				if err != nil {
					t.Fatal(err)
				}
				pairs = len(lists.Ent)
				m = k.match(&lists, nil)
			})
			if m.Size() == 0 {
				t.Fatalf("%s/%s matched nothing", city.Name, k.name)
			}
			t.Logf("%s/%s: %d acceptable pairs, lists + matching allocate %d B", city.Name, k.name, pairs, bytes)
			if limit := 24*pairs + r*tn/8 + 48*(r+tn); bytes > uint64(limit) {
				t.Errorf("%s/%s: %d B, want ≤ %d B (24 B per pair, 1 bit per cell, 48 B per index)", city.Name, k.name, bytes, limit)
			}
			if dense := 18 * r * tn; bytes >= uint64(dense) {
				t.Errorf("%s/%s: %d B, want < %d B (the dense market)", city.Name, k.name, bytes, dense)
			}
			if matrix := 8 * r * tn; city.Name == "newyork" && bytes >= uint64(matrix) {
				t.Errorf("%s/%s: %d B, want < %d B (one dense float64 matrix)", city.Name, k.name, bytes, matrix)
			}
		}
	}
}

// allocatedBytes returns the heap bytes fn allocates, the least of three
// runs.
func allocatedBytes(fn func()) uint64 {
	least := ^uint64(0)
	var before, after runtime.MemStats
	for k := 0; k < 3; k++ {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
