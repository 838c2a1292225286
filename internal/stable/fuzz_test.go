package stable

import (
	"math/rand"
	"slices"
	"testing"

	"stabledispatch/internal/costplane"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/pref"
)

// FuzzPreferenceLists checks the sparse preference lists and the
// deferred-acceptance kernel that runs on them against the dense
// references: Market.ReqPrefList/TaxiPrefList for the lists, IsStable
// and the BruteForceAll enumeration for the matchings. Each input drives
// two small markets. The first is the §IV-A market of a cost plane over
// integer grid points (so distances tie), with random party sizes and
// taxi seats, either dummy threshold on or off, and the plane pruned at
// the pickup threshold or not. The second has random integer costs on
// both sides, so it usually has several stable matchings.
func FuzzPreferenceLists(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed), uint8(seed*3), uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, nReq, nTaxi, mode uint8) {
		rng := rand.New(rand.NewSource(seed))
		r, tn := 1+int(nReq%6), 1+int(nTaxi%6)
		planeMarket(t, rng, r, tn, mode)
		mk := randomMarket(rng, r, tn, 0.4+0.6*rng.Float64())
		l := mk.Lists()
		checkLists(t, mk, &l)
		checkKernel(t, mk, &l)
	})
}

// planeMarket builds the plane-derived market for one fuzz input and
// checks ListsFromPlane and the kernel against it. mode's bits choose
// the pickup threshold, the net threshold, pruning, and α.
func planeMarket(t *testing.T, rng *rand.Rand, r, tn int, mode uint8) {
	grid := func() geo.Point { return geo.Point{X: float64(rng.Intn(7)), Y: float64(rng.Intn(7))} }
	reqs := make([]fleet.Request, r)
	for j := range reqs {
		reqs[j] = fleet.Request{ID: j, Pickup: grid(), Dropoff: grid(), Seats: rng.Intn(5)}
	}
	taxis := make([]fleet.Taxi, tn)
	for i := range taxis {
		taxis[i] = fleet.Taxi{ID: i, Pos: grid(), Seats: rng.Intn(5)}
	}
	p := pref.Unbounded()
	p.Alpha = []float64{0, 0.5, 1, 2}[mode>>3&3]
	if mode&1 != 0 {
		p.MaxPickup = float64(1 + rng.Intn(6))
	}
	if mode&2 != 0 {
		p.MaxNet = float64(rng.Intn(7) - 3)
	}
	cfg := costplane.Config{Workers: 1}
	if mode&4 != 0 {
		cfg.PruneRadius = p.MaxPickup
	}
	pl := costplane.Build(reqs, taxis, geo.EuclidMetric, cfg)
	inst, err := pref.FromPlane(pl, p)
	if err != nil {
		t.Fatal(err)
	}
	l, err := pref.ListsFromPlane(pl, p)
	if err != nil {
		t.Fatal(err)
	}
	checkLists(t, &inst.Market, &l)
	byTaxi, err := pref.TaxiListsFromPlane(pl, p)
	if err != nil {
		t.Fatal(err)
	}
	if want := l.Transpose(); !slices.Equal(byTaxi.Off, want.Off) || !slices.Equal(byTaxi.Ent, want.Ent) {
		t.Fatalf("TaxiListsFromPlane %v, transposed ListsFromPlane %v", byTaxi, want)
	}
	if cfg.PruneRadius != 0 {
		full, err := pref.ListsFromPlane(costplane.Build(reqs, taxis, geo.EuclidMetric, costplane.Config{Workers: 1}), p)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(full.Off, l.Off) || !slices.Equal(full.Ent, l.Ent) {
			t.Fatalf("lists from the pruned plane differ from the unpruned plane's:\n pruned %v\nunpruned %v", l, full)
		}
	}
	checkKernel(t, &inst.Market, &l)
}

// checkLists compares the sparse lists of mk, and their transpose, with
// the dense preference lists and cost matrices.
func checkLists(t *testing.T, mk *pref.Market, l *pref.Lists) {
	t.Helper()
	if l.Len() != mk.NumRequests() || l.Peers != mk.NumTaxis() {
		t.Fatalf("lists are %d×%d, market %d×%d", l.Len(), l.Peers, mk.NumRequests(), mk.NumTaxis())
	}
	for j := 0; j < mk.NumRequests(); j++ {
		row := l.Row(j)
		if got, want := peers(row), mk.ReqPrefList(j); !slices.Equal(got, want) {
			t.Fatalf("request %d list %v, ReqPrefList %v", j, got, want)
		}
		for _, e := range row {
			if e.Cost != mk.ReqCost[j][e.Peer] || e.PeerCost != mk.TaxiCost[e.Peer][j] {
				t.Fatalf("request %d entry %+v, market costs %v / %v", j, e, mk.ReqCost[j][e.Peer], mk.TaxiCost[e.Peer][j])
			}
		}
	}
	byTaxi := l.Transpose()
	for i := 0; i < mk.NumTaxis(); i++ {
		if got, want := peers(byTaxi.Row(i)), mk.TaxiPrefList(i); !slices.Equal(got, want) {
			t.Fatalf("taxi %d list %v, TaxiPrefList %v", i, got, want)
		}
	}
}

// checkKernel runs both proposing sides over l and compares them with
// the extremes of the brute-force enumeration of mk's stable matchings.
func checkKernel(t *testing.T, mk *pref.Market, l *pref.Lists) {
	t.Helper()
	byTaxi := l.Transpose()
	po, to := PassengerOptimalLists(l, nil), TaxiOptimalLists(&byTaxi, nil)
	for name, m := range map[string]Matching{"passenger-optimal": po, "taxi-optimal": to} {
		if err := IsStable(mk, m); err != nil {
			t.Fatalf("%s %v: %v", name, m.ReqPartner, err)
		}
	}
	all, err := BruteForceAll(mk, 6)
	if err != nil {
		t.Fatal(err)
	}
	reqBest := best(all, func(m, o Matching, k int) bool { return worseForReq(mk, k, m.ReqPartner[k], o.ReqPartner[k]) }, mk.NumRequests())
	taxiBest := best(all, func(m, o Matching, k int) bool { return worseForTaxi(mk, k, m.TaxiPartner[k], o.TaxiPartner[k]) }, mk.NumTaxis())
	if !po.Equal(reqBest) {
		t.Fatalf("passenger-optimal %v, passenger-best of %d stable matchings %v", po.ReqPartner, len(all), reqBest.ReqPartner)
	}
	if !to.Equal(taxiBest) {
		t.Fatalf("taxi-optimal %v, taxi-best of %d stable matchings %v", to.ReqPartner, len(all), taxiBest.ReqPartner)
	}
}

// best returns the matching in all that leaves none of the n agents of
// one side worse off than any other matching does.
func best(all []Matching, worse func(m, o Matching, k int) bool, n int) Matching {
	for _, m := range all {
		ok := true
		for _, o := range all {
			for k := 0; k < n && ok; k++ {
				ok = !worse(m, o, k)
			}
		}
		if ok {
			return m
		}
	}
	return Matching{}
}

func peers(row []pref.Entry) []int {
	out := []int{}
	for _, e := range row {
		out = append(out, int(e.Peer))
	}
	return out
}
