package pref

import (
	"math/bits"
	"slices"

	"stabledispatch/internal/costplane"
)

// Entry is one mutually acceptable partner on a preference list.
type Entry struct {
	// Peer is the partner's index on the other side of the market.
	Peer int32
	// Cost is the cost the list's owner assigns Peer: the sort key.
	Cost float64
	// PeerCost is the cost Peer assigns the list's owner. The receiving
	// side of deferred acceptance compares proposals by it.
	PeerCost float64
}

// Lists is the sparse form of a Market's preferences: only the mutually
// acceptable pairs, one CSR row per side index. Row k is
// Ent[Off[k]:Off[k+1]], most preferred first — ascending Cost, ties to
// the lower Peer, exactly the order of Market.ReqPrefList. Pairs behind
// either dummy are absent; they can never be stably matched.
//
// ListsFromPlane and Market.Lists return the request side (row j is
// request j, Peer a taxi, Cost the request's cost); TaxiListsFromPlane
// and Transpose give the taxi side in the same layout.
type Lists struct {
	Off []int32
	Ent []Entry
	// Peers is the number of indices on the other side.
	Peers int
}

// Len returns the number of rows.
func (l *Lists) Len() int { return len(l.Off) - 1 }

// Row returns row k, most preferred first. The caller must not modify
// it.
func (l *Lists) Row(k int) []Entry { return l.Ent[l.Off[k]:l.Off[k+1]] }

// Transpose returns the other side's lists: row p holds every k whose
// row names p, with the two costs swapped, ordered by p's own cost.
func (l *Lists) Transpose() Lists {
	t := Lists{Off: make([]int32, l.Peers+1), Peers: l.Len()}
	for _, e := range l.Ent {
		t.Off[e.Peer+1]++
	}
	t.alloc()
	for k := 0; k < l.Len(); k++ {
		for _, e := range l.Row(k) {
			t.put(int(e.Peer), Entry{Peer: int32(k), Cost: e.PeerCost, PeerCost: e.Cost})
		}
	}
	t.seal()
	return t
}

// The builders fill a Lists in three steps: count row k's entries in
// Off[k+1]; alloc turns the counts into row starts and allocates Ent
// exactly; put appends to row k, using Off[k] as the row's write
// cursor; seal, once every row is full (each cursor then sits on the
// next row's start), shifts Off back to row starts and sorts the rows.

func (l *Lists) alloc() {
	for k := 1; k < len(l.Off); k++ {
		l.Off[k] += l.Off[k-1]
	}
	l.Ent = make([]Entry, l.Off[len(l.Off)-1])
}

func (l *Lists) put(k int, e Entry) {
	l.Ent[l.Off[k]] = e
	l.Off[k]++
}

func (l *Lists) seal() {
	copy(l.Off[1:], l.Off[:l.Len()])
	l.Off[0] = 0
	l.sortRows()
}

// sortRows orders every row by (Cost, Peer).
func (l *Lists) sortRows() {
	for k := 0; k < l.Len(); k++ {
		if row := l.Row(k); len(row) > 1 {
			slices.SortFunc(row, byCost)
		}
	}
}

// byCost is Market.ReqPrefers as a three-way comparison.
func byCost(a, b Entry) int {
	if a.Cost != b.Cost {
		if a.Cost < b.Cost {
			return -1
		}
		return 1
	}
	return int(a.Peer) - int(b.Peer)
}

// Lists returns the market's request-side preference lists.
func (m *Market) Lists() Lists {
	l := Lists{Off: make([]int32, 1, m.NumRequests()+1), Peers: m.NumTaxis()}
	for j := 0; j < m.NumRequests(); j++ {
		for i := 0; i < m.NumTaxis(); i++ {
			if m.MutualOK(j, i) {
				l.Ent = append(l.Ent, Entry{Peer: int32(i), Cost: m.ReqCost[j][i], PeerCost: m.TaxiCost[i][j]})
			}
		}
		l.Off = append(l.Off, int32(len(l.Ent)))
	}
	l.sortRows()
	return l
}

// ListsFromPlane builds the request-side lists of the §IV-A non-sharing
// market straight from a cost plane, without the dense Market. It keeps
// exactly the pairs FromPlane marks mutually acceptable — enough seats,
// pickup within MaxPickup, and net = pickup − α·trip within MaxNet,
// computed by the same expressions — so the result equals
// FromPlane(pl, p).Market.Lists().
func ListsFromPlane(pl *costplane.Plane, p Params) (Lists, error) {
	return planeLists(pl, p, false)
}

// TaxiListsFromPlane is ListsFromPlane for the taxi side, the proposing
// side of the taxi-optimal matching; it equals the transpose of
// ListsFromPlane's result without building the request side.
func TaxiListsFromPlane(pl *costplane.Plane, p Params) (Lists, error) {
	return planeLists(pl, p, true)
}

// planeLists tests every plane cell once: pass one counts each row's
// acceptable pairs and marks them in a bitmap, one word-aligned run of
// bits per taxi; pass two, once Ent is allocated at its exact size,
// places only the marked pairs.
func planeLists(pl *costplane.Plane, p Params, byTaxi bool) (Lists, error) {
	if err := p.Validate(); err != nil {
		return Lists{}, err
	}
	trips := pl.Trips()
	seats := make([]int, len(pl.Requests))
	for j, req := range pl.Requests {
		seats[j] = req.SeatCount()
	}
	rows, peers := len(pl.Requests), len(pl.Taxis)
	if byTaxi {
		rows, peers = peers, rows
	}
	l := Lists{Off: make([]int32, rows+1), Peers: peers}
	words := (len(pl.Requests) + 63) / 64
	marks := make([]uint64, len(pl.Taxis)*words)
	for i, taxi := range pl.Taxis {
		capacity := taxi.Capacity()
		row := marks[i*words : (i+1)*words]
		for j, pickup := range pl.PickupRow(i) {
			if pickup <= p.MaxPickup && capacity >= seats[j] && pickup-p.Alpha*trips[j] <= p.MaxNet {
				row[j/64] |= 1 << (j % 64)
				if byTaxi {
					l.Off[i+1]++
				} else {
					l.Off[j+1]++
				}
			}
		}
	}
	l.alloc()
	for i := range pl.Taxis {
		pickups := pl.PickupRow(i)
		for w, word := range marks[i*words : (i+1)*words] {
			for ; word != 0; word &= word - 1 {
				j := w*64 + bits.TrailingZeros64(word)
				pickup := pickups[j]
				net := pickup - p.Alpha*trips[j]
				if byTaxi {
					l.put(i, Entry{Peer: int32(j), Cost: net, PeerCost: pickup})
				} else {
					l.put(j, Entry{Peer: int32(i), Cost: pickup, PeerCost: net})
				}
			}
		}
	}
	l.seal()
	return l, nil
}
