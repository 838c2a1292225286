// Package share implements the sharing taxi dispatch of §V: exhaustive
// shared-route planning (the general problem is NP-hard by Theorem 5, but
// groups have at most three requests, so at most 6!/2³ = 90 stop orders
// exist), feasible-group generation under the detour bound θ, the maximum
// set packing stage (Eqs. 1–3, via package setpack), and the refined
// interest models that turn packed groups into a pref.Market for
// Algorithm 1.
package share

import (
	"errors"
	"fmt"
	"math"

	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
)

// MaxGroupSize is the largest shareable group the paper considers
// practical ("the number of passenger requests for a taxi sharing is
// usually no greater than three").
const MaxGroupSize = 3

// ErrNoRequests is returned when planning a route for an empty group.
var ErrNoRequests = errors.New("share: no requests to route")

// RoutePlan is the optimal shared route for a group of requests: the
// stop order minimising total travel distance subject to every pickup
// preceding its drop-off.
type RoutePlan struct {
	// Stops is the optimal stop sequence. The first stop is always a
	// pickup.
	Stops []fleet.Stop
	// Length is the distance along Stops, measured from the first stop
	// (the taxi-to-first-stop leg is not included; it is unknown until
	// a taxi is matched).
	Length float64
	// PickupOffset[g] is the distance along the route from the first
	// stop to member g's pickup. D_ck(t_i, r_j^s) is then the taxi's
	// lead-in distance plus this offset.
	PickupOffset []float64
	// OnBoard[g] is D_ck(r_j^s, r_j^d): the distance member g spends
	// on board, along the shared route.
	OnBoard []float64
	// MaxLoad is the maximum number of occupied seats at any point on
	// the route, used against taxi capacity.
	MaxLoad int
}

// Detour returns member g's extra on-board distance relative to riding
// alone: D_ck(r^s, r^d) − D(r^s, r^d).
func (p RoutePlan) Detour(g int, soloTrip float64) float64 {
	return p.OnBoard[g] - soloTrip
}

// BestRoute exhaustively searches all pickup-before-drop-off stop orders
// for the group and returns the shortest, as Algorithm 3 prescribes. The
// route starts at the first pickup of the winning order. Groups larger
// than MaxGroupSize are rejected — the search is factorial.
func BestRoute(reqs []fleet.Request, m geo.Metric) (RoutePlan, error) {
	return bestRoute(nil, reqs, m)
}

// BestRouteFrom is BestRoute with a known taxi start position: the leg
// from start to the first stop counts toward the route length, so orders
// are compared from the taxi's perspective. The carpool baselines (which
// pick a taxi before routing) use this variant.
func BestRouteFrom(start geo.Point, reqs []fleet.Request, m geo.Metric) (RoutePlan, error) {
	return bestRoute(&start, reqs, m)
}

func bestRoute(start *geo.Point, reqs []fleet.Request, m geo.Metric) (RoutePlan, error) {
	var s routeSearch
	if err := s.run(start, reqs, m); err != nil {
		return RoutePlan{}, err
	}
	return s.plan(reqs), nil
}

// A route search works on point indices: member g's pickup is point 2g
// and its drop-off 2g+1; startPoint is the optional taxi start.
const (
	maxStops   = 2 * MaxGroupSize
	startPoint = maxStops
	maxPoints  = maxStops + 1
)

// routeSearch enumerates stop orders depth-first with branch-and-bound on
// the accumulated distance. It allocates nothing: each ordered leg is
// measured at most once, on first use, into a fixed table, and the
// incumbent is kept as an order of point indices until plan builds the
// result.
type routeSearch struct {
	metric   geo.Metric
	pts      [maxPoints]geo.Point
	hasStart bool
	stops    int // 2·len(reqs)

	leg   [maxPoints][maxPoints]float64
	known [maxPoints]uint8 // bit j of known[i]: leg[i][j] is measured

	order   [maxStops]uint8 // the partial order being extended
	visited uint8           // bit p: point p is on the partial order
	best    [maxStops]uint8
	bestLen float64
}

// run searches every stop order of reqs on a zero routeSearch, leaving
// the shortest as the incumbent.
func (s *routeSearch) run(start *geo.Point, reqs []fleet.Request, m geo.Metric) error {
	k := len(reqs)
	if k == 0 {
		return ErrNoRequests
	}
	if k > MaxGroupSize {
		return fmt.Errorf("share: group of %d exceeds the exhaustive-search limit %d", k, MaxGroupSize)
	}
	s.metric, s.stops, s.bestLen = m, 2*k, math.Inf(1)
	for g, r := range reqs {
		s.pts[2*g], s.pts[2*g+1] = r.Pickup, r.Dropoff
	}
	if start != nil {
		s.pts[startPoint] = *start
		s.hasStart = true
	}
	s.extend(0, 0)
	if math.IsInf(s.bestLen, 1) {
		return fmt.Errorf("share: no feasible stop order for %d requests", k)
	}
	return nil
}

// dist returns the leg from point i to point j, measuring it once.
func (s *routeSearch) dist(i, j uint8) float64 {
	if s.known[i]&(1<<j) == 0 {
		s.leg[i][j] = s.metric.Distance(s.pts[i], s.pts[j])
		s.known[i] |= 1 << j
	}
	return s.leg[i][j]
}

func (s *routeSearch) extend(lengthSoFar float64, depth int) {
	if lengthSoFar >= s.bestLen {
		return // bound: already no better than the incumbent
	}
	if depth == s.stops {
		s.best, s.bestLen = s.order, lengthSoFar
		return
	}
	for g := 0; 2*g < s.stops; g++ {
		p := uint8(2 * g) // the pickup, or else the drop-off once picked
		if s.visited&(1<<p) != 0 {
			p++
			if s.visited&(1<<p) != 0 {
				continue
			}
		}
		leg := 0.0
		if depth > 0 {
			leg = s.dist(s.order[depth-1], p)
		} else if s.hasStart {
			leg = s.dist(startPoint, p)
		}
		s.order[depth] = p
		s.visited |= 1 << p
		s.extend(lengthSoFar+leg, depth+1)
		s.visited &^= 1 << p
	}
}

// plan builds the RoutePlan of the incumbent order over reqs.
func (s *routeSearch) plan(reqs []fleet.Request) RoutePlan {
	k := s.stops / 2
	plan := RoutePlan{
		Stops:        make([]fleet.Stop, s.stops),
		Length:       s.bestLen,
		PickupOffset: make([]float64, k),
		OnBoard:      make([]float64, k),
	}
	for i, p := range s.best[:s.stops] {
		r := &reqs[p/2]
		if p%2 == 0 {
			plan.Stops[i] = fleet.Stop{RequestID: r.ID, Kind: fleet.StopPickup, Pos: r.Pickup}
		} else {
			plan.Stops[i] = fleet.Stop{RequestID: r.ID, Kind: fleet.StopDropoff, Pos: r.Dropoff}
		}
	}
	plan.MaxLoad = s.offsets(reqs, plan.PickupOffset, plan.OnBoard)
	return plan
}

// offsets walks the incumbent order from its first stop, filling each
// member's pickup offset and on-board distance, and returns the peak
// seat load. The optional taxi lead-in counts toward the search's length
// but not toward the offsets.
func (s *routeSearch) offsets(reqs []fleet.Request, pickupOffset, onBoard []float64) (maxLoad int) {
	dist := 0.0
	load := 0
	for i, p := range s.best[:s.stops] {
		if i > 0 {
			dist += s.dist(s.best[i-1], p)
		}
		g := p / 2
		if p%2 == 0 {
			pickupOffset[g] = dist
			load += reqs[g].SeatCount()
			maxLoad = max(maxLoad, load)
		} else {
			onBoard[g] = dist - pickupOffset[g]
			load -= reqs[g].SeatCount()
		}
	}
	return maxLoad
}
