// Package stable implements the paper's matching core: Algorithm 1
// (non-sharing taxi dispatch via passenger-proposing deferred acceptance
// with dummy partners), Algorithm 2 (enumerating all stable matchings via
// BreakDispatch under Rules 1–3), the taxi-optimal matching, and
// company-side selection among the stable matchings.
//
// Terminology follows the paper: passengers play the proposing side of
// the Gale–Shapley procedure, so Algorithm 1 yields the passenger-optimal
// stable matching (Property 2). Dummy partners (Theorem 1) are encoded by
// the sparse pref.Lists the matchings run on — a pair behind either
// dummy has no list entry, so it is never proposed to and never
// accepted.
package stable

import (
	"fmt"
	"slices"

	"stabledispatch/internal/pref"
)

// Unmatched marks a request or taxi with a dummy partner (no dispatch).
const Unmatched = -1

// Matching is a taxi dispatch schedule S: a partial matching between
// requests and taxis.
type Matching struct {
	// ReqPartner[j] is the taxi dispatched to request j, or Unmatched.
	ReqPartner []int
	// TaxiPartner[i] is the request taxi i serves, or Unmatched.
	TaxiPartner []int
}

// NewMatching returns an empty matching for r requests and t taxis.
func NewMatching(r, t int) Matching {
	m := Matching{
		ReqPartner:  make([]int, r),
		TaxiPartner: make([]int, t),
	}
	for j := range m.ReqPartner {
		m.ReqPartner[j] = Unmatched
	}
	for i := range m.TaxiPartner {
		m.TaxiPartner[i] = Unmatched
	}
	return m
}

// Clone returns a deep copy of the matching.
func (m Matching) Clone() Matching {
	c := Matching{
		ReqPartner:  make([]int, len(m.ReqPartner)),
		TaxiPartner: make([]int, len(m.TaxiPartner)),
	}
	copy(c.ReqPartner, m.ReqPartner)
	copy(c.TaxiPartner, m.TaxiPartner)
	return c
}

// Size returns the number of matched request-taxi pairs.
func (m Matching) Size() int {
	n := 0
	for _, p := range m.ReqPartner {
		if p != Unmatched {
			n++
		}
	}
	return n
}

// Equal reports whether two matchings pair everyone identically.
func (m Matching) Equal(o Matching) bool {
	if len(m.ReqPartner) != len(o.ReqPartner) {
		return false
	}
	for j := range m.ReqPartner {
		if m.ReqPartner[j] != o.ReqPartner[j] {
			return false
		}
	}
	return true
}

// Key returns a canonical string identity for deduplication in tests.
func (m Matching) Key() string {
	return fmt.Sprint(m.ReqPartner)
}

// gsState is a deferred-acceptance run over one side's preference
// lists. prop[p] is proposer p's tentative partner and recv[q] receiver
// q's (Unmatched for the dummy); next[p] is the Ent index of p's next
// proposal (entries before it have refused p or been left by p); held[q]
// is the cost receiver q assigns recv[q], recorded when q accepted.
//
// The receiver compares a proposal against held[q] with the index
// tie-break — c < held[q], or c == held[q] and the proposer's index is
// lower — which is Market.TaxiPrefers (ReqPrefers in the mirror) with
// the tentative partner's cost looked up once instead of on every
// proposal, so no R×T matrix is consulted.
type gsState struct {
	prop, recv []int
	next       []int32
	held       []float64
}

func newState(l *pref.Lists) gsState {
	s := gsState{
		prop: make([]int, l.Len()),
		recv: make([]int, l.Peers),
		next: slices.Clone(l.Off[:l.Len()]),
		held: make([]float64, l.Peers),
	}
	for p := range s.prop {
		s.prop[p] = Unmatched
	}
	for q := range s.recv {
		s.recv[q] = Unmatched
	}
	return s
}

func (s gsState) clone() gsState {
	return gsState{
		prop: slices.Clone(s.prop),
		recv: slices.Clone(s.recv),
		next: slices.Clone(s.next),
		held: slices.Clone(s.held),
	}
}

// matching returns a copy of the run's matching, reading the proposing
// side as the requests.
func (s gsState) matching() Matching {
	return Matching{ReqPartner: slices.Clone(s.prop), TaxiPartner: slices.Clone(s.recv)}
}

// takes reports whether a receiver holding partner cur at cost held
// prefers proposer p, which it assigns cost c.
func takes(c float64, p int, held float64, cur int) bool {
	return c < held || (c == held && p < cur)
}

// accept records receiver q taking proposer p at cost c.
func (s *gsState) accept(p, q int, c float64) {
	s.prop[p], s.recv[q], s.held[q] = q, p, c
}

// deferredAcceptance runs the proposing side of l through the paper's
// Proposal/Refusal loop in index order and publishes the run's
// telemetry once. Over request lists it is Algorithm 1; over the
// transposed taxi lists it is the taxi-proposing mirror. o may be nil.
func deferredAcceptance(l *pref.Lists, o *Observer) gsState {
	s := newState(l)
	var proposals, displacements uint64
	for p := 0; p < l.Len(); p++ {
		n, d := s.propose(l, p, o)
		proposals += n
		displacements += d
	}
	obsProposals.Add(proposals)
	obsDisplacements.Add(displacements)
	obsMatchings.Inc()
	return s
}

// propose is the paper's Proposal/Refusal pair: proposer p proposes
// down its list; a displaced proposer immediately re-proposes
// (iteratively rather than recursively). It returns the proposals made
// and the partners displaced.
func (s *gsState) propose(l *pref.Lists, p int, o *Observer) (proposals, displacements uint64) {
	active := p
	for {
		k := s.next[active]
		if k == l.Off[active+1] {
			// Next entry is the dummy: active stays unmatched.
			o.exhausted(active)
			return proposals, displacements
		}
		s.next[active] = k + 1
		e := &l.Ent[k]
		q := int(e.Peer)
		proposals++

		cur := s.recv[q]
		switch {
		case cur == Unmatched:
			// Refusal, lines 10-11: an undispatched receiver accepts
			// any proposer ahead of its dummy (the lists hold only
			// mutually acceptable pairs).
			s.accept(active, q, e.PeerCost)
			o.proposal(active, q, Unmatched, "accepted")
			return proposals, displacements
		case takes(e.PeerCost, active, s.held[q], cur):
			// Refusal, lines 12-14: the receiver upgrades and the
			// displaced proposer goes back to proposing.
			s.accept(active, q, e.PeerCost)
			s.prop[cur] = Unmatched
			displacements++
			o.proposal(active, q, cur, "displaced")
			active = cur
		default:
			// Refusal, line 16: the receiver keeps its partner.
			o.proposal(active, q, cur, "refused")
		}
	}
}

// PassengerOptimal runs Algorithm 1 (Non-Sharing Taxi Dispatch) and
// returns the passenger-optimal stable matching: every request gets its
// best partner among all stable matchings, every taxi its worst
// (Property 2). Requests and taxis whose preference order starts with the
// dummy are never dispatched (Property 1).
func PassengerOptimal(mk *pref.Market) Matching {
	return PassengerOptimalObserved(mk, nil)
}

// PassengerOptimalLists is Algorithm 1 over request-side lists, with
// per-decision callbacks (o may be nil).
func PassengerOptimalLists(l *pref.Lists, o *Observer) Matching {
	s := deferredAcceptance(l, o)
	return Matching{ReqPartner: s.prop, TaxiPartner: s.recv}
}

// TaxiOptimal returns the taxi-optimal stable matching: among all stable
// matchings every taxi gets its best partner and every request its worst.
// It runs the mirror-image of Algorithm 1 with taxis proposing, which by
// the lattice structure of stable matchings (and confirmed against the
// Algorithm 2 enumeration in tests) is exactly the matching the paper
// calls NSTD-T.
func TaxiOptimal(mk *pref.Market) Matching {
	l := mk.Lists()
	byTaxi := l.Transpose()
	return TaxiOptimalLists(&byTaxi, nil)
}

// TaxiOptimalLists is the taxi-proposing mirror over taxi-side lists
// (pref.TaxiListsFromPlane, or Lists.Transpose of the request side);
// Observer.Proposal receives taxi indices as proposer and request
// indices as target (o may be nil).
func TaxiOptimalLists(byTaxi *pref.Lists, o *Observer) Matching {
	s := deferredAcceptance(byTaxi, o)
	return Matching{ReqPartner: s.recv, TaxiPartner: s.prop}
}

// IsStable reports whether the matching is stable under Definition 1,
// returning a descriptive error naming the first violation found:
// either an individually irrational pair (someone matched behind their
// dummy) or a blocking pair — a request and taxi that both prefer each
// other over their current partners, where dummies prefer any acceptable
// non-dummy.
func IsStable(mk *pref.Market, m Matching) error {
	r, t := mk.NumRequests(), mk.NumTaxis()
	if len(m.ReqPartner) != r || len(m.TaxiPartner) != t {
		return fmt.Errorf("stable: matching sized %dx%d, want %dx%d",
			len(m.ReqPartner), len(m.TaxiPartner), r, t)
	}
	for j := 0; j < r; j++ {
		i := m.ReqPartner[j]
		if i == Unmatched {
			continue
		}
		if i < 0 || i >= t {
			return fmt.Errorf("stable: request %d matched to invalid taxi %d", j, i)
		}
		if m.TaxiPartner[i] != j {
			return fmt.Errorf("stable: request %d and taxi %d disagree on pairing", j, i)
		}
		if !mk.MutualOK(j, i) {
			return fmt.Errorf("stable: pair (r%d, t%d) is behind a dummy (individually irrational)", j, i)
		}
	}
	for j := 0; j < r; j++ {
		for i := 0; i < t; i++ {
			if m.ReqPartner[j] == i || !mk.MutualOK(j, i) {
				continue
			}
			// Request side: prefers i over its current partner,
			// where the dummy loses to any acceptable taxi.
			jWants := m.ReqPartner[j] == Unmatched || mk.ReqPrefers(j, i, m.ReqPartner[j])
			if !jWants {
				continue
			}
			iWants := m.TaxiPartner[i] == Unmatched || mk.TaxiPrefers(i, j, m.TaxiPartner[i])
			if iWants {
				return fmt.Errorf("stable: (r%d, t%d) is a blocking pair", j, i)
			}
		}
	}
	return nil
}
