// Package dispatch wires the paper's matching algorithms and the
// non-sharing comparison algorithms into sim.Dispatcher implementations:
//
//   - NSTD-P / NSTD-T — Algorithm 1 and its taxi-optimal counterpart
//     (stable matching with dummy partners, §IV).
//   - STD-P / STD-T — Algorithm 3 (set packing + stable matching, §V).
//   - Greedy, MinCost ("Pair"), Bottleneck ("Worst") — the literature
//     baselines of §VI-B, which consider only passenger-side cost.
//
// All non-sharing dispatchers assign idle taxis only and emit one
// single-ride assignment per matched pair.
package dispatch

import (
	"fmt"

	"stabledispatch/internal/costplane"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/match"
	"stabledispatch/internal/pref"
	"stabledispatch/internal/share"
	"stabledispatch/internal/sim"
	"stabledispatch/internal/stable"
)

// idleFleet converts the idle taxis of a frame into fleet.Taxi values,
// in fleet order, reading the views in place.
func idleFleet(f *sim.Frame) []fleet.Taxi {
	defer stageTimer("idle_scan").ObserveDuration()
	n := 0
	for i := range f.Taxis {
		if f.Taxis[i].Idle {
			n++
		}
	}
	taxis := make([]fleet.Taxi, 0, n)
	for i := range f.Taxis {
		if v := &f.Taxis[i]; v.Idle {
			taxis = append(taxis, fleet.Taxi{ID: v.ID, Pos: v.Pos, Seats: v.Seats, Status: fleet.TaxiIdle})
		}
	}
	return taxis
}

// prunedPlane builds (or memo-hits) the frame's cost plane pruned at
// the passenger-side dummy threshold: taxis farther than MaxPickup from
// a pickup sit behind the dummy regardless, so skipping their cells
// leaves every preference list unchanged.
func prunedPlane(f *sim.Frame, taxis []fleet.Taxi) *costplane.Plane {
	defer stageTimer("cost_plane").ObserveDuration()
	return f.CostPlane(taxis, costplane.Config{PruneRadius: f.Params.MaxPickup})
}

// prunedInstance builds the frame's dense non-sharing instance from the
// pruned plane, for the dispatchers that enumerate stable matchings.
func prunedInstance(f *sim.Frame, taxis []fleet.Taxi) (*pref.Instance, error) {
	pl := prunedPlane(f, taxis)
	defer stageTimer("pref_build").ObserveDuration()
	return pref.FromPlane(pl, f.Params)
}

// NSTD is the paper's non-sharing stable dispatcher. The passenger-
// optimal variant (NSTD-P) runs Algorithm 1 directly; the taxi-optimal
// variant (NSTD-T) selects the taxi-best stable matching (the paper
// derives it from Algorithms 1 and 2; the taxi-proposing mirror computes
// the same matching and is validated against the enumeration in tests).
type NSTD struct {
	taxiOptimal bool
}

var _ sim.Dispatcher = (*NSTD)(nil)

// NewNSTDP returns the passenger-optimal stable dispatcher.
func NewNSTDP() *NSTD { return &NSTD{} }

// NewNSTDT returns the taxi-optimal stable dispatcher.
func NewNSTDT() *NSTD { return &NSTD{taxiOptimal: true} }

// Name implements sim.Dispatcher.
func (d *NSTD) Name() string {
	if d.taxiOptimal {
		return "NSTD-T"
	}
	return "NSTD-P"
}

// Dispatch implements sim.Dispatcher.
func (d *NSTD) Dispatch(f *sim.Frame) ([]fleet.Assignment, error) {
	taxis := idleFleet(f)
	if len(taxis) == 0 || len(f.Requests) == 0 {
		return nil, nil
	}
	pl := prunedPlane(f, taxis)
	build := pref.ListsFromPlane
	if d.taxiOptimal {
		build = pref.TaxiListsFromPlane
	}
	tm := stageTimer("pref_build")
	lists, err := build(pl, f.Params)
	tm.ObserveDuration()
	if err != nil {
		return nil, fmt.Errorf("dispatch: %w", err)
	}
	m := matchLists(newFrameTracer(f.Number, f.Requests, nil, taxis), &lists, d.taxiOptimal)
	out := singleRides(m, taxis, f.Requests)
	obsAssignments.Add(uint64(len(out)))
	return out, nil
}

// matchLists runs the frame's stable matching over the proposing
// side's lists: the taxi side for the taxi-optimal variants, the request
// side otherwise. ft may be nil (tracing off).
func matchLists(ft *frameTracer, lists *pref.Lists, taxiOptimal bool) stable.Matching {
	ft.shortlist(lists, taxiOptimal)
	defer stageTimer("matching").ObserveDuration()
	if taxiOptimal {
		return stable.TaxiOptimalLists(lists, ft.observer(true))
	}
	return stable.PassengerOptimalLists(lists, ft.observer(false))
}

// costMatrix returns the request-major pickup-distance matrix the
// baselines minimise — they model only the passenger's wait. The matrix
// is a view of the frame's unpruned cost plane: the baselines have no
// acceptability thresholds (a request beyond every radius still takes
// its nearest taxi), so every cell must hold a real distance.
func costMatrix(f *sim.Frame, taxis []fleet.Taxi) [][]float64 {
	tm := stageTimer("cost_plane")
	pl := f.CostPlane(taxis, costplane.Config{})
	tm.ObserveDuration()
	defer stageTimer("cost_matrix").ObserveDuration()
	return pl.CostMatrix()
}

// partnerFunc turns a cost matrix into a request→taxi assignment.
type partnerFunc func(cost [][]float64) ([]int, error)

// baseline is a generic non-sharing baseline dispatcher.
type baseline struct {
	name string
	run  partnerFunc
}

var _ sim.Dispatcher = (*baseline)(nil)

// NewGreedy returns the greedy baseline: each request takes the nearest
// idle taxi, in arrival order (Hanna et al. [3]).
func NewGreedy() sim.Dispatcher {
	return &baseline{name: "Greedy", run: match.Greedy}
}

// NewMinCost returns the minimum-cost bipartite matching baseline (the
// paper's "Pair"): minimise the total request-taxi distance.
func NewMinCost() sim.Dispatcher {
	return &baseline{name: "MinCost", run: func(cost [][]float64) ([]int, error) {
		partner, _, err := match.MinCost(cost)
		return partner, err
	}}
}

// NewBottleneck returns the bottleneck matching baseline (the paper's
// "Worst"): minimise the maximum matched request-taxi distance.
func NewBottleneck() sim.Dispatcher {
	return &baseline{name: "Bottleneck", run: func(cost [][]float64) ([]int, error) {
		partner, _, err := match.Bottleneck(cost)
		return partner, err
	}}
}

// Name implements sim.Dispatcher.
func (b *baseline) Name() string { return b.name }

// Dispatch implements sim.Dispatcher.
func (b *baseline) Dispatch(f *sim.Frame) ([]fleet.Assignment, error) {
	taxis := idleFleet(f)
	if len(taxis) == 0 || len(f.Requests) == 0 {
		return nil, nil
	}
	cost := costMatrix(f, taxis)
	tm := stageTimer("matching")
	partner, err := b.run(cost)
	tm.ObserveDuration()
	if err != nil {
		return nil, fmt.Errorf("dispatch: %s: %w", b.name, err)
	}
	var out []fleet.Assignment
	for j, i := range partner {
		if i != match.Unmatched {
			out = append(out, fleet.SingleRide(taxis[i].ID, f.Requests[j]))
		}
	}
	obsAssignments.Add(uint64(len(out)))
	return out, nil
}

// DefaultPackBatch bounds how many pending requests enter the packing
// stage per frame. Algorithm 3's feasible-group search is quadratic to
// cubic in the batch; at the paper's frame sizes (tens of requests) the
// cap never binds, but when a scarce fleet lets the queue grow, only the
// oldest DefaultPackBatch requests are considered for sharing and the
// rest ride the same stable matching as singles.
const DefaultPackBatch = 100

// STD is Algorithm 3: pack compatible requests into share groups by
// maximum set packing, then stably match the resulting units to idle
// taxis under the §V-A interest model.
type STD struct {
	taxiOptimal bool
	packCfg     share.PackConfig
	maxBatch    int
}

var _ sim.Dispatcher = (*STD)(nil)

// NewSTDP returns the packed passenger-optimal sharing dispatcher.
func NewSTDP(cfg share.PackConfig) *STD { return &STD{packCfg: cfg, maxBatch: DefaultPackBatch} }

// NewSTDT returns the packed taxi-optimal sharing dispatcher.
func NewSTDT(cfg share.PackConfig) *STD {
	return &STD{taxiOptimal: true, packCfg: cfg, maxBatch: DefaultPackBatch}
}

// Name implements sim.Dispatcher.
func (d *STD) Name() string {
	if d.taxiOptimal {
		return "STD-T"
	}
	return "STD-P"
}

// Dispatch implements sim.Dispatcher.
func (d *STD) Dispatch(f *sim.Frame) ([]fleet.Assignment, error) {
	taxis := idleFleet(f)
	if len(taxis) == 0 || len(f.Requests) == 0 {
		return nil, nil
	}
	n := packBatchSize(len(f.Requests), d.maxBatch)
	tm := stageTimer("cost_plane")
	pl := f.CostPlane(taxis, costplane.Config{
		PruneRadius: f.Params.MaxPickup,
		// A singleton batch consults no pickup pair, so skip the R×R
		// pair matrix entirely — common at quiet frames.
		Pairs:      n >= 2,
		PairRadius: d.packCfg.PairRadius,
	})
	tm.ObserveDuration()
	tm = stageTimer("packing")
	units, err := packedUnits(f, pl, d.packCfg, n)
	tm.ObserveDuration()
	if err != nil {
		return nil, fmt.Errorf("dispatch: %s: %w", d.Name(), err)
	}
	tm = stageTimer("pref_build")
	mk, err := share.BuildMarketPlane(units, taxis, pl, f.Params)
	if err != nil {
		tm.ObserveDuration()
		return nil, fmt.Errorf("dispatch: %s: %w", d.Name(), err)
	}
	lists := mk.Lists()
	if d.taxiOptimal {
		lists = lists.Transpose()
	}
	tm.ObserveDuration()
	m := matchLists(newFrameTracer(f.Number, f.Requests, units, taxis), &lists, d.taxiOptimal)
	var out []fleet.Assignment
	for k, i := range m.ReqPartner {
		if i != stable.Unmatched {
			out = append(out, units[k].Assignment(taxis[i].ID, f.Requests))
		}
	}
	obsAssignments.Add(uint64(len(out)))
	return out, nil
}

// packBatchSize is the number of oldest pending requests entering the
// packing stage: min(total, maxBatch), with maxBatch ≤ 0 meaning
// DefaultPackBatch.
func packBatchSize(total, maxBatch int) int {
	if maxBatch <= 0 {
		maxBatch = DefaultPackBatch
	}
	if total > maxBatch {
		return maxBatch
	}
	return total
}

// packedUnits runs Algorithm 3's first stage on the oldest n pending
// requests and appends the overflow as single-rider units, so a long
// queue still gets stable single dispatches while the packing stage
// stays frame-rate. Pair distances and solo trips come from the frame's
// cost plane.
func packedUnits(f *sim.Frame, pl *costplane.Plane, cfg share.PackConfig, n int) ([]share.Unit, error) {
	res, err := share.PackPlane(n, pl, cfg)
	if err != nil {
		return nil, err
	}
	units := res.UnitsPlane(pl)
	for idx := n; idx < len(f.Requests); idx++ {
		units = append(units, share.SingleUnitPlane(idx, pl))
	}
	return units, nil
}
