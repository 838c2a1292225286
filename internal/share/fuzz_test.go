package share

import (
	"testing"

	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
)

// FuzzBestRoute checks the exhaustive route search on 1–3 requests, with
// and without a taxi start: Length equals the unpruned enumeration's
// minimum exactly, Stops is a pickup-before-drop-off order of the group,
// and Length, PickupOffset, OnBoard and MaxLoad equal a walk along Stops.
// Coordinates sit on a half-kilometre grid, so coincident points and
// equal-length orders are common.
func FuzzBestRoute(f *testing.F) {
	f.Add(uint8(1), false, uint8(0), []byte{0, 0, 6, 8})
	f.Add(uint8(2), true, uint8(0x15), []byte{1, 1, 2, 2, 9, 9, 1, 1, 2, 2})
	f.Add(uint8(3), false, uint8(0x3f), []byte{0, 0, 4, 0, 0, 0, 4, 0, 0, 0, 4, 0})
	f.Add(uint8(3), true, uint8(0x2a), []byte{3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3})
	f.Add(uint8(2), false, uint8(0), []byte{0, 0, 10, 0, 10, 0, 0, 0})
	f.Fuzz(func(t *testing.T, k uint8, withStart bool, seats uint8, coords []byte) {
		k = 1 + k%MaxGroupSize
		n := 4 * int(k)
		if withStart {
			n += 2
		}
		if len(coords) < n {
			return
		}
		pt := func(i int) geo.Point {
			return geo.Point{X: float64(coords[i]%32) / 2, Y: float64(coords[i+1]%32) / 2}
		}
		reqs := make([]fleet.Request, k)
		for g := range reqs {
			// Two bits of seats per rider: 0 reads as the default 1.
			reqs[g] = fleet.Request{ID: 10 + g, Pickup: pt(4 * g), Dropoff: pt(4*g + 2), Seats: int(seats>>(2*g)) & 3}
		}
		var start *geo.Point
		if withStart {
			p := pt(4 * int(k))
			start = &p
		}
		m := geo.EuclidMetric
		plan, err := bestRoute(start, reqs, m)
		if err != nil {
			t.Fatalf("bestRoute: %v", err)
		}
		if want := bruteBestLength(start, reqs, m); plan.Length != want {
			t.Fatalf("Length = %v, brute force = %v", plan.Length, want)
		}
		if err := (fleet.Assignment{Requests: idsOf(reqs), Route: plan.Stops}).Validate(); err != nil {
			t.Fatalf("invalid stop order %v: %v", plan.Stops, err)
		}
		if len(plan.PickupOffset) != len(reqs) || len(plan.OnBoard) != len(reqs) {
			t.Fatalf("offsets sized %d/%d for %d requests", len(plan.PickupOffset), len(plan.OnBoard), len(reqs))
		}

		length, dist := 0.0, 0.0
		if start != nil {
			length = m.Distance(*start, plan.Stops[0].Pos)
		}
		load, maxLoad := 0, 0
		pickupAt := make([]float64, len(reqs))
		for i, stop := range plan.Stops {
			if i > 0 {
				leg := m.Distance(plan.Stops[i-1].Pos, stop.Pos)
				length += leg
				dist += leg
			}
			g := indexByID(reqs, stop.RequestID)
			r := reqs[g]
			switch {
			case stop.Kind == fleet.StopPickup && stop.Pos == r.Pickup:
				pickupAt[g] = dist
				if plan.PickupOffset[g] != dist {
					t.Fatalf("PickupOffset[%d] = %v, walked %v", g, plan.PickupOffset[g], dist)
				}
				load += r.SeatCount()
				maxLoad = max(maxLoad, load)
			case stop.Kind == fleet.StopDropoff && stop.Pos == r.Dropoff:
				if onBoard := dist - pickupAt[g]; plan.OnBoard[g] != onBoard {
					t.Fatalf("OnBoard[%d] = %v, walked %v", g, plan.OnBoard[g], onBoard)
				}
				load -= r.SeatCount()
			default:
				t.Fatalf("stop %d = %+v does not match request %+v", i, stop, r)
			}
		}
		if plan.Length != length {
			t.Fatalf("Length = %v, walked %v", plan.Length, length)
		}
		if plan.MaxLoad != maxLoad {
			t.Fatalf("MaxLoad = %d, walked %d", plan.MaxLoad, maxLoad)
		}
	})
}
