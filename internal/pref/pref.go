// Package pref builds the passenger and taxi-driver interest models of
// the paper (§IV-A for non-sharing, §V-A for sharing) and exposes them as
// a generic two-sided matching Market consumed by package stable.
//
// A passenger request r_j prefers taxi t_i over t_i' iff
// D(t_i, r_j^s) < D(t_i', r_j^s): passengers only care about wait time. A
// taxi driver t_i prefers request r_j over r_j' iff
// D(t_i, r_j^s) − α·D(r_j^s, r_j^d) < D(t_i, r_j'^s) − α·D(r_j'^s, r_j'^d):
// the idle drive is an expense and the trip is the pay-off.
//
// Dummy partners (the paper's "no dispatch" / "no service" entries) are
// realised as acceptability thresholds: entries whose cost exceeds the
// threshold sit behind the dummy and can never be stably matched.
package pref

import (
	"fmt"
	"math"
	"sort"

	"stabledispatch/internal/costplane"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
)

// Params holds the interest-model coefficients from the paper.
type Params struct {
	// Alpha combines a taxi's expense (idle drive) with its pay-off
	// (trip distance). The paper's experiments use α = 1.
	Alpha float64
	// Beta combines a sharing passenger's wait with the extra detour
	// distance. The paper's experiments use β = 1.
	Beta float64
	// MaxPickup is the passenger-side dummy threshold: a taxi farther
	// than this from the pickup sits behind the passenger's dummy
	// entry. +Inf disables the threshold.
	MaxPickup float64
	// MaxNet is the taxi-side dummy threshold on
	// D(t,r^s) − α·D(r^s,r^d): requests with a larger (worse) value sit
	// behind the taxi's dummy entry. +Inf disables the threshold.
	MaxNet float64
}

// DefaultParams returns the coefficients used in the paper's evaluation:
// α = β = 1, a 10 km pickup threshold on the passenger side, and a taxi
// threshold of 2 km — a driver tolerates an idle drive of up to 2 km
// beyond α times the paid trip before preferring no dispatch.
func DefaultParams() Params {
	return Params{
		Alpha:     1,
		Beta:      1,
		MaxPickup: 10,
		MaxNet:    2,
	}
}

// Unbounded reports Params with both dummy thresholds disabled; every
// passenger-taxi pair is mutually acceptable, recovering the classic
// stable-marriage setting.
func Unbounded() Params {
	return Params{
		Alpha:     1,
		Beta:      1,
		MaxPickup: math.Inf(1),
		MaxNet:    math.Inf(1),
	}
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	switch {
	case math.IsNaN(p.Alpha) || p.Alpha < 0:
		return fmt.Errorf("pref: alpha must be non-negative, got %v", p.Alpha)
	case math.IsNaN(p.Beta) || p.Beta < 0:
		return fmt.Errorf("pref: beta must be non-negative, got %v", p.Beta)
	case math.IsNaN(p.MaxPickup):
		return fmt.Errorf("pref: max pickup threshold is NaN")
	case math.IsNaN(p.MaxNet):
		return fmt.Errorf("pref: max net threshold is NaN")
	}
	return nil
}

// Market is a two-sided matching instance: R requests and T taxis, each
// side holding a cost it assigns to every counterparty (lower is better)
// and an acceptability bit (false means the counterparty sits behind the
// dummy entry). Preference orders are strict: cost ties are broken by the
// counterparty's index, which keeps every algorithm in package stable
// deterministic.
type Market struct {
	// ReqCost[j][i] is the cost request j assigns taxi i; for the
	// non-sharing model this is D(t_i, r_j^s), which is also the
	// passenger-dissatisfaction metric of the paper.
	ReqCost [][]float64
	// TaxiCost[i][j] is the cost taxi i assigns request j; for the
	// non-sharing model this is D(t_i, r_j^s) − α·D(r_j^s, r_j^d), the
	// taxi-dissatisfaction metric.
	TaxiCost [][]float64
	// ReqOK[j][i] reports whether taxi i is ahead of request j's dummy.
	ReqOK [][]bool
	// TaxiOK[i][j] reports whether request j is ahead of taxi i's dummy.
	TaxiOK [][]bool
}

// MakeMarket returns a Market with all four matrices carved from two
// backing slabs (one float64, one bool). Markets are rebuilt every
// frame, so a row-per-allocation layout would dominate the frame's
// allocation profile; the slab layout costs six allocations regardless
// of size.
func MakeMarket(nReq, nTaxi int) Market {
	m := Market{
		ReqCost:  make([][]float64, nReq),
		TaxiCost: make([][]float64, nTaxi),
		ReqOK:    make([][]bool, nReq),
		TaxiOK:   make([][]bool, nTaxi),
	}
	floats := make([]float64, 2*nReq*nTaxi)
	bools := make([]bool, 2*nReq*nTaxi)
	for j := 0; j < nReq; j++ {
		m.ReqCost[j] = floats[j*nTaxi : (j+1)*nTaxi : (j+1)*nTaxi]
		m.ReqOK[j] = bools[j*nTaxi : (j+1)*nTaxi : (j+1)*nTaxi]
	}
	base := nReq * nTaxi
	for i := 0; i < nTaxi; i++ {
		m.TaxiCost[i] = floats[base+i*nReq : base+(i+1)*nReq : base+(i+1)*nReq]
		m.TaxiOK[i] = bools[base+i*nReq : base+(i+1)*nReq : base+(i+1)*nReq]
	}
	return m
}

// NumRequests returns R.
func (m *Market) NumRequests() int { return len(m.ReqCost) }

// NumTaxis returns T.
func (m *Market) NumTaxis() int { return len(m.TaxiCost) }

// Validate checks that all matrices are consistently sized.
func (m *Market) Validate() error {
	r, t := m.NumRequests(), m.NumTaxis()
	if len(m.ReqOK) != r || len(m.TaxiOK) != t {
		return fmt.Errorf("pref: acceptability matrices sized %dx%d, want %dx%d",
			len(m.ReqOK), len(m.TaxiOK), r, t)
	}
	for j := 0; j < r; j++ {
		if len(m.ReqCost[j]) != t || len(m.ReqOK[j]) != t {
			return fmt.Errorf("pref: request %d has %d costs / %d accept bits, want %d",
				j, len(m.ReqCost[j]), len(m.ReqOK[j]), t)
		}
		for i := 0; i < t; i++ {
			if math.IsNaN(m.ReqCost[j][i]) {
				return fmt.Errorf("pref: request %d cost for taxi %d is NaN", j, i)
			}
		}
	}
	for i := 0; i < t; i++ {
		if len(m.TaxiCost[i]) != r || len(m.TaxiOK[i]) != r {
			return fmt.Errorf("pref: taxi %d has %d costs / %d accept bits, want %d",
				i, len(m.TaxiCost[i]), len(m.TaxiOK[i]), r)
		}
		for j := 0; j < r; j++ {
			if math.IsNaN(m.TaxiCost[i][j]) {
				return fmt.Errorf("pref: taxi %d cost for request %d is NaN", i, j)
			}
		}
	}
	return nil
}

// MutualOK reports whether request j and taxi i are each ahead of the
// other's dummy entry; only such pairs can appear in a stable matching.
func (m *Market) MutualOK(j, i int) bool {
	return m.ReqOK[j][i] && m.TaxiOK[i][j]
}

// ReqPrefers reports whether request j strictly prefers taxi i1 over i2.
func (m *Market) ReqPrefers(j, i1, i2 int) bool {
	c1, c2 := m.ReqCost[j][i1], m.ReqCost[j][i2]
	if c1 != c2 {
		return c1 < c2
	}
	return i1 < i2
}

// TaxiPrefers reports whether taxi i strictly prefers request j1 over j2.
func (m *Market) TaxiPrefers(i, j1, j2 int) bool {
	c1, c2 := m.TaxiCost[i][j1], m.TaxiCost[i][j2]
	if c1 != c2 {
		return c1 < c2
	}
	return j1 < j2
}

// ReqPrefList returns request j's preference list: the mutually
// acceptable taxis sorted from most to least preferred. Taxis behind
// either dummy are omitted (they can never be stably matched to j).
// The matchings run on Lists; this is the reference Lists is tested
// against.
func (m *Market) ReqPrefList(j int) []int {
	var list []int
	for i := 0; i < m.NumTaxis(); i++ {
		if m.MutualOK(j, i) {
			list = append(list, i)
		}
	}
	sort.Slice(list, func(a, b int) bool {
		return m.ReqPrefers(j, list[a], list[b])
	})
	return list
}

// TaxiPrefList returns taxi i's preference list: the mutually acceptable
// requests sorted from most to least preferred.
func (m *Market) TaxiPrefList(i int) []int {
	var list []int
	for j := 0; j < m.NumRequests(); j++ {
		if m.MutualOK(j, i) {
			list = append(list, j)
		}
	}
	sort.Slice(list, func(a, b int) bool {
		return m.TaxiPrefers(i, list[a], list[b])
	})
	return list
}

// Instance is a non-sharing dispatch instance: the market derived from
// the paper's §IV-A interest model, plus the raw distances the simulator
// needs for metric reporting.
type Instance struct {
	Market

	Requests []fleet.Request
	Taxis    []fleet.Taxi
	// PickupDist[i][j] = D(t_i, r_j^s).
	PickupDist [][]float64
	// TripDist[j] = D(r_j^s, r_j^d).
	TripDist []float64
	Params   Params
}

// NewInstance computes the non-sharing market for the given requests and
// taxis under metric and params. A pair is mutually acceptable iff the
// pickup distance is within params.MaxPickup, the taxi's net cost is
// within params.MaxNet, and the taxi has enough seats (the paper pushes
// seat-infeasible pairs behind both dummies).
//
// The full (unpruned) distance plane is built serially; dispatchers on
// the per-frame hot path instead build a pruned plane once via
// sim.Frame.CostPlane and call FromPlane.
func NewInstance(reqs []fleet.Request, taxis []fleet.Taxi, metric geo.Metric, params Params) (*Instance, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return FromPlane(costplane.Build(reqs, taxis, metric, costplane.Config{Workers: 1}), params)
}

// FromPlane builds the non-sharing instance from an already-computed
// distance plane. The instance aliases the plane's matrices (planes are
// immutable after Build). A plane pruned at params.MaxPickup yields the
// same market as an unpruned one: a pruned cell reads +Inf, which fails
// the pickup threshold exactly like its true distance (the prune radius
// lower-bounds it) — the pair sits behind the passenger's dummy either
// way, so preference lists are unchanged.
func FromPlane(pl *costplane.Plane, params Params) (*Instance, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	inst := &Instance{
		Requests:   pl.Requests,
		Taxis:      pl.Taxis,
		PickupDist: pl.PickupMatrix(),
		TripDist:   pl.Trips(),
		Params:     params,
	}
	inst.Market = buildNonSharingMarket(inst)
	return inst, nil
}

func buildNonSharingMarket(inst *Instance) Market {
	r, t := len(inst.Requests), len(inst.Taxis)
	m := MakeMarket(r, t)
	for i, taxi := range inst.Taxis {
		for j, req := range inst.Requests {
			pickup := inst.PickupDist[i][j]
			net := pickup - inst.Params.Alpha*inst.TripDist[j]
			seatsOK := taxi.Capacity() >= req.SeatCount()

			m.ReqCost[j][i] = pickup
			m.TaxiCost[i][j] = net
			m.ReqOK[j][i] = seatsOK && pickup <= inst.Params.MaxPickup
			m.TaxiOK[i][j] = seatsOK && net <= inst.Params.MaxNet
		}
	}
	return m
}

// PassengerDissatisfaction returns the paper's non-sharing passenger
// metric for dispatching the taxi at pos to request r: D(t, r^s).
func PassengerDissatisfaction(pos geo.Point, r fleet.Request, metric geo.Metric) float64 {
	return metric.Distance(pos, r.Pickup)
}

// TaxiDissatisfaction returns the paper's non-sharing taxi metric:
// D(t, r^s) − α·D(r^s, r^d).
func TaxiDissatisfaction(pos geo.Point, r fleet.Request, metric geo.Metric, alpha float64) float64 {
	return metric.Distance(pos, r.Pickup) - alpha*r.TripDistance(metric)
}

// SplitOversized divides requests whose party exceeds maxSeats into
// multiple requests at the same locations, each needing at most maxSeats
// — the paper's §IV-A handling for parties no single taxi can carry
// ("r_j can be divided into multiple requests, each of which asks for a
// taxi with fewer seats"). New requests take IDs from nextID upward; the
// caller guarantees those are unused. Requests within the limit pass
// through unchanged.
func SplitOversized(reqs []fleet.Request, maxSeats int, nextID int) []fleet.Request {
	if maxSeats < 1 {
		maxSeats = 1
	}
	out := make([]fleet.Request, 0, len(reqs))
	for _, r := range reqs {
		seats := r.SeatCount()
		if seats <= maxSeats {
			out = append(out, r)
			continue
		}
		first := true
		for seats > 0 {
			part := r
			part.Seats = seats
			if part.Seats > maxSeats {
				part.Seats = maxSeats
			}
			if first {
				first = false
			} else {
				part.ID = nextID
				nextID++
			}
			out = append(out, part)
			seats -= part.Seats
		}
	}
	return out
}
