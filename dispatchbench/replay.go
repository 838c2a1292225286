package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"

	"stabledispatch/internal/costplane"
	"stabledispatch/internal/dispatch"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/pref"
	"stabledispatch/internal/setpack"
	"stabledispatch/internal/share"
	"stabledispatch/internal/sim"
	"stabledispatch/internal/stable"
)

// The traced offline run wraps the dispatcher to record a Dispatch span
// inside each Step span and to keep the frame view it was given. After
// the Step it replays the frame's inputs through the layers' public
// calls, one span per call. Replays run outside the Step spans, so they
// do not inflate the engine's numbers.

// frameCapture is one frame's dispatcher inputs and output.
type frameCapture struct {
	number   int
	reqs     []fleet.Request
	taxis    []fleet.Taxi // idle taxis, in fleet order
	metric   geo.Metric
	params   pref.Params
	assigned map[int][]int // taxi ID → sorted request IDs
}

// capture converts what the dispatcher saw and returned. The engine
// builds a fresh frame view for every dispatch and never touches it
// afterwards, so the traced dispatcher keeps the view and the capture
// runs after the Step; the idle fleet is converted exactly as the
// dispatchers convert it.
func capture(f *sim.Frame, out []fleet.Assignment) *frameCapture {
	c := &frameCapture{
		number:   f.Number,
		reqs:     f.Requests,
		metric:   f.Metric,
		params:   f.Params,
		assigned: assignmentSet(out),
	}
	for _, v := range f.IdleTaxis() {
		c.taxis = append(c.taxis, fleet.Taxi{ID: v.ID, Pos: v.Pos, Seats: v.Seats, Status: fleet.TaxiIdle})
	}
	return c
}

func assignmentSet(out []fleet.Assignment) map[int][]int {
	m := make(map[int][]int, len(out))
	for _, a := range out {
		ids := append([]int(nil), a.Requests...)
		sort.Ints(ids)
		m[a.TaxiID] = ids
	}
	return m
}

// layerCounts accumulates the per-layer work counts of the traced run.
type layerCounts struct {
	frames         int // Steps
	dispatchFrames int // Steps that called the dispatcher
	replayFrames   int // dispatch frames with at least one idle taxi
	pending        int // Σ pending requests over dispatch frames
	idle           int // Σ idle taxis over dispatch frames
	assigned       int // Σ requests assigned
	cells, kept    int // cost-plane cells built, and those within the prune radius
	acceptable     int // mutually acceptable request–taxi pairs
	proposals      int
	matched        int // matched pairs
	matchable      int // Σ min(units, idle taxis)
	groups         int // feasible share groups
	batch, packed  int // requests entering packing, and those packed into a chosen group
}

// offlineTracer records the traced run's spans and counts.
type offlineTracer struct {
	w      offline
	rec    *spans
	res    *result
	step   int // open Step span
	frame  *sim.Frame
	out    []fleet.Assignment
	counts layerCounts
}

// tracedDispatcher wraps the workload's dispatcher with a Dispatch span
// and keeps the frame view and assignments for the replay.
type tracedDispatcher struct {
	inner sim.Dispatcher
	t     *offlineTracer
}

func (d tracedDispatcher) Name() string { return d.inner.Name() }

func (d tracedDispatcher) Dispatch(f *sim.Frame) ([]fleet.Assignment, error) {
	id := d.t.rec.begin("dispatch", d.t.step, f.Number)
	out, err := d.inner.Dispatch(f)
	d.t.rec.end(id)
	d.t.frame, d.t.out = f, out
	return out, err
}

func (t *offlineTracer) beforeStep(frame int) {
	t.step = t.rec.begin("sim.step", 0, frame)
}

func (t *offlineTracer) afterStep(frame int) error {
	t.rec.end(t.step)
	t.counts.frames++
	if t.frame == nil {
		return nil
	}
	c := capture(t.frame, t.out)
	t.frame, t.out = nil, nil
	t.counts.dispatchFrames++
	t.counts.pending += len(c.reqs)
	t.counts.idle += len(c.taxis)
	for _, ids := range c.assigned {
		t.counts.assigned += len(ids)
	}
	if len(c.taxis) == 0 {
		return nil
	}
	t.counts.replayFrames++
	root := t.rec.begin("replay", 0, frame)
	defer t.rec.end(root)
	if t.w.sharing {
		return t.replaySharing(c, root)
	}
	return t.replayNonSharing(c, root)
}

// replayNonSharing repeats NSTD-P's pipeline: cost plane pruned at the
// pickup threshold, preference lists, passenger-proposing deferred
// acceptance.
func (t *offlineTracer) replayNonSharing(c *frameCapture, root int) error {
	id := t.rec.begin("costplane.build", root, c.number)
	pl := costplane.Build(c.reqs, c.taxis, c.metric, costplane.Config{PruneRadius: c.params.MaxPickup})
	t.rec.end(id)
	t.countPlane(pl)

	id = t.rec.begin("pref.build", root, c.number)
	inst, err := pref.FromPlane(pl, c.params)
	t.rec.end(id)
	if err != nil {
		return fmt.Errorf("replay frame %d: %w", c.number, err)
	}
	mk := &inst.Market
	t.countAcceptable(mk)

	m := t.match(mk, root, c.number)
	got := make(map[int][]int)
	for j, i := range m.ReqPartner {
		if i != stable.Unmatched {
			got[c.taxis[i].ID] = []int{c.reqs[j].ID}
		}
	}
	t.compare(c, got)
	return nil
}

// replaySharing repeats STD-P's pipeline: cost plane with pickup pairs,
// feasible share groups over the packing batch, local-search set
// packing, the unit market, and deferred acceptance.
func (t *offlineTracer) replaySharing(c *frameCapture, root int) error {
	n := min(len(c.reqs), dispatch.DefaultPackBatch)
	id := t.rec.begin("costplane.build", root, c.number)
	pl := costplane.Build(c.reqs, c.taxis, c.metric, costplane.Config{
		PruneRadius: c.params.MaxPickup,
		Pairs:       n >= 2,
		PairRadius:  packConfig.PairRadius,
	})
	t.rec.end(id)
	t.countPlane(pl)

	id = t.rec.begin("share.groups", root, c.number)
	groups, err := share.FeasibleGroupsPlane(n, pl, packConfig)
	t.rec.end(id)
	if err != nil {
		return fmt.Errorf("replay frame %d: %w", c.number, err)
	}
	t.counts.groups += len(groups)

	problem := setpack.Problem{N: n, Sets: make([][]int, len(groups))}
	for k, g := range groups {
		problem.Sets[k] = g.Members
	}
	id = t.rec.begin("setpack.localsearch", root, c.number)
	chosen := setpack.LocalSearch(problem)
	t.rec.end(id)

	// Assemble the packing result as share.PackPlane does: chosen groups
	// ordered by first member, every other batch request single.
	res := share.PackResult{}
	packed := make([]bool, n)
	for _, k := range chosen {
		res.Groups = append(res.Groups, groups[k])
		for _, idx := range groups[k].Members {
			packed[idx] = true
		}
	}
	sort.Slice(res.Groups, func(a, b int) bool { return res.Groups[a].Members[0] < res.Groups[b].Members[0] })
	for idx := range packed {
		if packed[idx] {
			t.counts.packed++
		} else {
			res.Singles = append(res.Singles, idx)
		}
	}
	t.counts.batch += n
	units := res.UnitsPlane(pl)
	for idx := n; idx < len(c.reqs); idx++ {
		units = append(units, share.SingleUnitPlane(idx, pl))
	}

	id = t.rec.begin("share.market", root, c.number)
	mk, err := share.BuildMarketPlane(units, c.taxis, pl, c.params)
	t.rec.end(id)
	if err != nil {
		return fmt.Errorf("replay frame %d: %w", c.number, err)
	}
	t.countAcceptable(mk)

	m := t.match(mk, root, c.number)
	got := make(map[int][]int)
	for k, i := range m.ReqPartner {
		if i != stable.Unmatched {
			a := units[k].Assignment(c.taxis[i].ID, c.reqs)
			ids := append([]int(nil), a.Requests...)
			sort.Ints(ids)
			got[a.TaxiID] = ids
		}
	}
	t.compare(c, got)
	return nil
}

// match runs passenger-proposing deferred acceptance with a counting
// observer and checks the matching is stable.
func (t *offlineTracer) match(mk *pref.Market, root, frame int) stable.Matching {
	proposals := 0
	obs := &stable.Observer{Proposal: func(_, _, _ int, _ string) { proposals++ }}
	id := t.rec.begin("stable.match", root, frame)
	m := stable.PassengerOptimalObserved(mk, obs)
	t.rec.end(id)
	t.counts.proposals += proposals
	t.counts.matched += m.Size()
	t.counts.matchable += min(mk.NumRequests(), mk.NumTaxis())
	if err := stable.IsStable(mk, m); err != nil {
		t.res.fail("%s frame %d: replayed matching is not stable: %v", t.w.name, frame, err)
	}
	return m
}

// compare checks the replay reproduced the dispatcher's assignments.
func (t *offlineTracer) compare(c *frameCapture, got map[int][]int) {
	if len(got) != len(c.assigned) {
		t.res.fail("%s frame %d: replay assigned %d taxis, dispatcher %d", t.w.name, c.number, len(got), len(c.assigned))
		return
	}
	for taxi, ids := range c.assigned {
		if fmt.Sprint(got[taxi]) != fmt.Sprint(ids) {
			t.res.fail("%s frame %d: taxi %d got %v on replay, %v from the dispatcher", t.w.name, c.number, taxi, got[taxi], ids)
			return
		}
	}
}

func (t *offlineTracer) countPlane(pl *costplane.Plane) {
	t.counts.cells += pl.Cells()
	for i := range pl.Taxis {
		for _, d := range pl.PickupRow(i) {
			if !math.IsInf(d, 1) {
				t.counts.kept++
			}
		}
	}
}

func (t *offlineTracer) countAcceptable(mk *pref.Market) {
	for j := 0; j < mk.NumRequests(); j++ {
		for i := 0; i < mk.NumTaxis(); i++ {
			if mk.MutualOK(j, i) {
				t.counts.acceptable++
			}
		}
	}
}

// runtimeSample reads the allocation and CPU counters of the Go runtime.
type runtimeSample struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: val(s[0].Value), gcCPU: val(s[1].Value), totalCPU: val(s[2].Value)}
}

// trace runs the workload once untraced, reading the runtime counters
// around it, then once traced, and reports the per-layer metrics and the
// tracing overhead.
func (w offline) trace(seed int64, ref references, res *result, spanPath string) error {
	r0 := readRuntime()
	plain, err := w.runPass(seed, w.dispatcher, nil)
	if err != nil {
		return err
	}
	r1 := readRuntime()
	w.checkDays(plain.days, ref, res)

	t := &offlineTracer{w: w, rec: newSpans(), res: res}
	traced, err := w.runPass(seed, func() sim.Dispatcher {
		return tracedDispatcher{inner: w.dispatcher(), t: t}
	}, t)
	if err != nil {
		return err
	}
	w.checkDays(traced.days, ref, res)
	res.Attempted += plain.reqs + traced.reqs

	cn := t.counts
	lt := layerTimes(t.rec.list)
	perFrame := func(name string, frames int) float64 {
		if l := lt[name]; l != nil && frames > 0 {
			return l.totalUs / float64(frames)
		}
		return 0
	}
	ratio := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	df, rf := cn.dispatchFrames, cn.replayFrames
	if l := lt["sim.step"]; l != nil {
		res.set("sim.engine_us_per_frame", "us", l.selfUs/float64(l.n), l.n)
	}
	res.set("sim.pending_mean", "count", ratio(cn.pending, df), df)
	res.set("sim.idle_taxis_mean", "count", ratio(cn.idle, df), df)
	res.set("dispatch.us_per_frame", "us", perFrame("dispatch", df), df)
	res.set("dispatch.assign_per_frame", "count", ratio(cn.assigned, df), df)
	res.set("dispatch.assign_yield", "ratio", ratio(cn.assigned, cn.pending), cn.pending)
	res.set("costplane.us_per_frame", "us", perFrame("costplane.build", rf), rf)
	res.set("costplane.cells_per_frame", "count", ratio(cn.cells, rf), rf)
	res.set("costplane.kept_frac", "ratio", ratio(cn.kept, cn.cells), cn.cells)
	res.set("pref.us_per_frame", "us", perFrame("pref.build", rf), rf)
	res.set("pref.acceptable_pairs_per_frame", "count", ratio(cn.acceptable, rf), rf)
	res.set("stable.us_per_frame", "us", perFrame("stable.match", rf), rf)
	res.set("stable.proposals_per_frame", "count", ratio(cn.proposals, rf), rf)
	res.set("stable.matched_frac", "ratio", ratio(cn.matched, cn.matchable), cn.matchable)
	res.set("share.groups_us_per_frame", "us", perFrame("share.groups", rf), rf)
	res.set("share.groups_per_frame", "count", ratio(cn.groups, rf), rf)
	res.set("share.market_us_per_frame", "us", perFrame("share.market", rf), rf)
	res.set("setpack.us_per_frame", "us", perFrame("setpack.localsearch", rf), rf)
	res.set("share.shared_frac", "ratio", ratio(cn.packed, cn.batch), cn.batch)

	frames := len(plain.stepMs)
	res.set("runtime.alloc_mb_per_frame", "MB", (r1.allocBytes-r0.allocBytes)/1e6/float64(frames), frames)
	gcFrac := 0.0
	if cpu := r1.totalCPU - r0.totalCPU; cpu > 0 {
		gcFrac = (r1.gcCPU - r0.gcCPU) / cpu
	}
	res.set("runtime.gc_cpu_frac", "ratio", gcFrac, frames)

	// Tracing overhead: the traced Steps carry the Dispatch span; the
	// captures and replays run between Steps and are not counted.
	res.set("trace.overhead_frac", "ratio", traced.stepMs.sum()/plain.stepMs.sum()-1, frames)
	p50, p99, err := plain.stepMs.quantiles()
	if err != nil {
		return err
	}
	tp50, tp99, err := traced.stepMs.quantiles()
	if err != nil {
		return err
	}
	res.note("frame_p50_ms untraced %.4f traced %.4f; frame_p99_ms untraced %.4f traced %.4f",
		p50, tp50, p99, tp99)
	return t.rec.write(spanPath)
}
