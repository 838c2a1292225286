package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"strconv"
	"time"

	"stabledispatch/internal/dispatch"
	"stabledispatch/internal/fleet"
	"stabledispatch/internal/pref"
	"stabledispatch/internal/share"
	"stabledispatch/internal/sim"
	"stabledispatch/internal/trace"
)

// offline is a workload that simulates whole city-days in process
// through sim.New and Simulator.Step.
type offline struct {
	name    string
	city    trace.City
	perDay  int // requests per day
	taxis   int
	pool    int // distinct days with a stored reference; inputs repeat every pool days
	sharing bool
	// daysPerSecond sizes the input set from the time budget: a budget
	// of s seconds buys round(s·daysPerSecond) consecutive days, at least
	// one. The rate is fixed, not measured, so the same arguments always
	// give the same work however fast the machine is; on a 2-vCPU host a
	// 20 s budget simulates in 10–20 s.
	daysPerSecond float64
	days          int // days in the input set, set by forBudget
}

// packConfig is the paper's sharing configuration (θ = 5 km, groups of
// up to three), as the experiment harness and dispatchd build it.
var packConfig = share.PackConfig{Theta: 5, MaxGroupSize: 3, PairRadius: 10}

var (
	nycBacklog  = offline{name: "nyc-backlog", city: trace.NewYork(), perDay: 46600, taxis: 700, pool: 32, daysPerSecond: 0.15}
	bostonShare = offline{name: "boston-share", city: trace.Boston(), perDay: 13500, taxis: 200, pool: 64, sharing: true, daysPerSecond: 1.5}
)

const (
	dayFrames      = 1440
	patienceFrames = 60
	drainFrames    = 240 // sim.Config's default drain bound
	// minSetups is how many set-ups one run measures at least; set-up
	// time is their median.
	minSetups = 9
)

// forBudget returns the workload sized for a budget of the given
// seconds.
func (w offline) forBudget(seconds float64) offline {
	w.days = max(1, int(math.Round(seconds*w.daysPerSecond)))
	return w
}

func (w offline) dispatcher() sim.Dispatcher {
	if w.sharing {
		return dispatch.NewSTDP(packConfig)
	}
	return dispatch.NewNSTDP()
}

// dayIndex maps the seed and the day's position in the input set to a
// day of the reference pool. The same seed always gives the same days.
func (w offline) dayIndex(seed int64, d int) int {
	k := (seed*int64(w.days) + int64(d)) % int64(w.pool)
	if k < 0 {
		k += int64(w.pool)
	}
	return int(k)
}

// daySeed is the generator seed of pool day k.
func daySeed(k int) int64 { return 42 + int64(k)*100003 }

// dayInput is one generated city-day.
type dayInput struct {
	index int
	reqs  []fleet.Request
	taxis []fleet.Taxi
}

func (w offline) generate(k int) (dayInput, error) {
	seed := daySeed(k)
	reqs, err := trace.Generate(trace.Config{City: w.city, Frames: dayFrames, RequestsPerDay: w.perDay, Seats: 3, Seed: seed})
	if err != nil {
		return dayInput{}, fmt.Errorf("generate %s day %d: %w", w.name, k, err)
	}
	taxis, err := trace.Taxis(w.city, w.taxis, seed+1)
	if err != nil {
		return dayInput{}, fmt.Errorf("generate %s day %d: %w", w.name, k, err)
	}
	return dayInput{index: k, reqs: reqs, taxis: taxis}, nil
}

// setup generates pool day k and builds its simulator; the returned
// duration is the set-up time.
func (w offline) setup(k int, d sim.Dispatcher, events sim.EventSink) (*sim.Simulator, dayInput, time.Duration, error) {
	start := time.Now()
	in, err := w.generate(k)
	if err != nil {
		return nil, dayInput{}, 0, err
	}
	s, err := sim.New(sim.Config{
		Params:         pref.DefaultParams(),
		Dispatcher:     d,
		PatienceFrames: patienceFrames,
		Events:         events,
	}, in.taxis, in.reqs)
	if err != nil {
		return nil, dayInput{}, 0, fmt.Errorf("set up %s day %d: %w", w.name, k, err)
	}
	return s, in, time.Since(start), nil
}

// digest hashes the assignment event stream of one day.
type digest struct {
	h   hash.Hash64
	buf [24]byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

// Record implements sim.EventSink.
func (d *digest) Record(e sim.Event) {
	if e.Kind != sim.EventAssign {
		return
	}
	binary.LittleEndian.PutUint64(d.buf[0:], uint64(e.Frame))
	binary.LittleEndian.PutUint64(d.buf[8:], uint64(e.RequestID))
	binary.LittleEndian.PutUint64(d.buf[16:], uint64(e.TaxiID))
	_, _ = d.h.Write(d.buf[:]) // hash writes never fail
}

// dayRun is the outcome of simulating one day.
type dayRun struct {
	index    int
	requests int
	// stepMs is the wall time of every Step, in milliseconds.
	stepMs dist
	// assignMs is, per served request, the wall time from the start of
	// the Step its request arrived in to the end of the Step that
	// assigned it.
	assignMs dist
	loop     time.Duration
	// check is the assignment digest plus the final KPIs, compared with
	// the stored reference.
	check string
}

// stepHook brackets each Step; the traced run records spans through it.
type stepHook interface {
	beforeStep(frame int)
	afterStep(frame int) error
}

// simulate steps the simulator until it is done or the drain bound
// passes, as Simulator.Run does, timing every Step.
func simulate(s *sim.Simulator, in dayInput, dg *digest, hook stepHook) (dayRun, error) {
	deadline := drainFrames
	if n := len(in.reqs); n > 0 {
		deadline += in.reqs[n-1].Frame
	}
	var starts, ends []time.Duration
	run := dayRun{index: in.index, requests: len(in.reqs)}
	begin := time.Now()
	for !s.Done() && s.Frame() <= deadline {
		frame := s.Frame()
		if hook != nil {
			hook.beforeStep(frame)
		}
		t0 := time.Since(begin)
		if err := s.Step(); err != nil {
			return dayRun{}, err
		}
		t1 := time.Since(begin)
		if hook != nil {
			if err := hook.afterStep(frame); err != nil {
				return dayRun{}, err
			}
		}
		starts = append(starts, t0)
		ends = append(ends, t1)
		run.stepMs = append(run.stepMs, float64(t1-t0)/1e6)
	}
	run.loop = time.Since(begin)
	rep := s.Snapshot()
	for _, o := range rep.Requests {
		if o.Served {
			run.assignMs = append(run.assignMs, float64(ends[o.AssignFrame]-starts[o.ArrivalFrame])/1e6)
		}
	}
	run.check = checkString(dg.h.Sum64(), rep)
	return run, nil
}

// checkString renders the day's assignment digest and final KPIs:
// served and expired counts, and the means of dispatch delay and of
// passenger and taxi dissatisfaction, with every float digit.
func checkString(sum uint64, rep *sim.Report) string {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return fmt.Sprintf("assign=%016x served=%d expired=%d delay=%s pass=%s taxi=%s",
		sum, rep.ServedCount(), rep.AbandonedCount(),
		g(dist(rep.DispatchDelays()).mean()),
		g(dist(rep.PassengerDissatisfactions()).mean()),
		g(dist(rep.TaxiDissatisfactions()).mean()))
}

// offlinePass is one pass over a workload's input set.
type offlinePass struct {
	days   []dayRun
	setupS dist
	stepMs dist
	assign dist
	reqs   int
	loop   time.Duration
}

// runPass sets up and simulates each day of the seed's input set once.
// Each day is set up repeatedly (the last simulator is the one run) so
// that the pass measures at least minSetups set-ups. newDispatcher and
// hook let the traced run wrap the dispatcher and bracket each Step.
func (w offline) runPass(seed int64, newDispatcher func() sim.Dispatcher, hook stepHook) (*offlinePass, error) {
	p := &offlinePass{}
	perDay := (minSetups + w.days - 1) / w.days
	for d := 0; d < w.days; d++ {
		k := w.dayIndex(seed, d)
		var (
			s  *sim.Simulator
			in dayInput
			dg *digest
		)
		for rep := 0; rep < perDay; rep++ {
			dg = newDigest()
			var took time.Duration
			var err error
			s, in, took, err = w.setup(k, newDispatcher(), dg)
			if err != nil {
				return nil, err
			}
			p.setupS = append(p.setupS, took.Seconds())
		}
		run, err := simulate(s, in, dg, hook)
		if err != nil {
			return nil, fmt.Errorf("%s day %d: %w", w.name, k, err)
		}
		p.days = append(p.days, run)
		p.stepMs = append(p.stepMs, run.stepMs...)
		p.assign = append(p.assign, run.assignMs...)
		p.reqs += run.requests
		p.loop += run.loop
	}
	return p, nil
}

// checkDays compares every simulated day with the stored reference.
func (w offline) checkDays(days []dayRun, ref references, res *result) {
	for _, d := range days {
		want, ok := ref.lookup(w.name, d.index)
		if !ok {
			res.fail("%s day %d: no stored reference", w.name, d.index)
			continue
		}
		if d.check != want {
			res.fail("%s day %d: outputs differ from the reference:\n  got  %s\n  want %s", w.name, d.index, d.check, want)
		}
	}
}

// run measures the workload untraced and reports the end-to-end
// metrics.
func (w offline) run(seed int64, ref references, res *result) error {
	p, err := w.runPass(seed, w.dispatcher, nil)
	if err != nil {
		return err
	}
	w.checkDays(p.days, ref, res)
	res.Attempted += p.reqs
	res.set("setup_s", "s", p.setupS.median(), len(p.setupS))
	res.set("sim_req_per_s", "1/s", float64(p.reqs)/p.loop.Seconds(), p.reqs)
	if err := res.setQuantiles("frame", "ms", p.stepMs); err != nil {
		return err
	}
	if err := res.setQuantiles("assign", "ms", p.assign); err != nil {
		return err
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	res.set("peak_rss_mb", "MB", rss, 1)
	return nil
}
