package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"stabledispatch/internal/sim"
	"stabledispatch/internal/stream"
	"stabledispatch/internal/trace"
)

// serve is the open-loop serving workload: a real dispatchd with its
// defaults and a fleet far larger than demand, fed Boston trips at a
// fixed Poisson rate over one keep-alive connection, with assignments
// read from one /v1/stream subscription.
type serve struct {
	binary string
	seed   int64
	window time.Duration // how long requests are sent
	logDir string        // where the daemon's standard error goes
}

const (
	serveRate  = 200.0 // requests per second
	serveTaxis = 2000
	serveTick  = 100 * time.Millisecond
	// assignDeadline is how long after its due time a request may wait
	// for its assign event before it counts as failed.
	assignDeadline = 5 * time.Second
	// serveSetups is how many daemons a run starts to measure set-up
	// time; the last one serves the load.
	serveSetups = 9
	// certSamples is how many assigning frames have their stability
	// certificate checked.
	certSamples = 20
)

// planned is one scheduled request: when it is due, relative to the
// start of sending, and its JSON body.
type planned struct {
	due  time.Duration
	body []byte
}

// schedule returns the seed's requests: round(rate·window) arrivals
// placed as a Poisson process conditioned on that count (uniform times,
// sorted), carrying the trips of a Boston day generated from the seed.
func schedule(seed int64, window time.Duration, rate float64) ([]planned, error) {
	trips, err := trace.Generate(trace.BostonConfig(dayFrames, seed))
	if err != nil {
		return nil, err
	}
	n := int(math.Round(rate * window.Seconds()))
	rng := rand.New(rand.NewSource(seed))
	dues := make([]float64, n)
	for k := range dues {
		dues[k] = rng.Float64() * window.Seconds()
	}
	sort.Float64s(dues)
	out := make([]planned, n)
	for k := range out {
		r := trips[k%len(trips)]
		out[k] = planned{
			due: time.Duration(dues[k] * float64(time.Second)),
			body: []byte(fmt.Sprintf(`{"pickup":{"x":%g,"y":%g},"dropoff":{"x":%g,"y":%g},"seats":%d}`,
				r.Pickup.X, r.Pickup.Y, r.Dropoff.X, r.Dropoff.Y, r.Seats)),
		}
	}
	return out, nil
}

// daemon is one running dispatchd.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	log    *os.File
}

// startDaemon starts dispatchd on a free local port and waits until
// /healthz answers; the returned duration runs from just before the
// process starts until then.
func (s serve) startDaemon(n int) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	if err := os.MkdirAll(s.logDir, 0o755); err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(filepath.Join(s.logDir, fmt.Sprintf("dispatchd-%d.log", n)))
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{base: "http://127.0.0.1:" + port, exited: make(chan struct{}), log: logf}
	d.cmd = exec.Command(s.binary, "-addr", "127.0.0.1:"+port,
		"-taxis", strconv.Itoa(serveTaxis), "-auto", serveTick.String())
	d.cmd.Stdout = logf
	d.cmd.Stderr = logf
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start dispatchd: %w", err)
	}
	go func() {
		_ = d.cmd.Wait() // the exit status is irrelevant once stopped
		close(d.exited)
	}()
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return d, time.Since(start), nil
			}
		}
		select {
		case <-d.exited:
			logf.Close()
			return nil, 0, fmt.Errorf("dispatchd exited before answering /healthz (log in %s)", logf.Name())
		case <-time.After(time.Millisecond):
		}
		if time.Since(start) > 20*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("dispatchd did not answer /healthz within 20s")
		}
	}
}

// stop interrupts the daemon, lets it drain, and waits for it to exit,
// killing it if it takes longer than ten seconds.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGINT) // it may already have exited
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	d.log.Close()
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("find a free port: %w", err)
	}
	defer l.Close()
	_, port, err := net.SplitHostPort(l.Addr().String())
	return port, err
}

// outcome is what happened to one scheduled request.
type outcome struct {
	due, sent, acked time.Time
	id               int // -1 unless accepted
	shed             bool
	err              error
}

// assignLog collects the assign events read from the stream.
type assignLog struct {
	mu    sync.Mutex
	at    map[int][]time.Time // request ID → when each assign event arrived
	frame map[int]int         // request ID → frame of its first assign
}

func (l *assignLog) add(id, frame int, at time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.at[id]) == 0 {
		l.frame[id] = frame
	}
	l.at[id] = append(l.at[id], at)
}

// first returns when the request's first assign event arrived.
func (l *assignLog) first(id int) (time.Time, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if ts := l.at[id]; len(ts) > 0 {
		return ts[0], true
	}
	return time.Time{}, false
}

// assignKind marks an assign event's JSON payload.
var assignKind = []byte(`"kind":"assign"`)

// watch subscribes to the daemon's lifecycle events and returns once the
// connect snapshot has arrived, so every later assign is seen. The
// returned stop function closes the subscription and waits for the
// reader to finish.
func watch(base string, log *assignLog) (stop func(), err error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/stream?topics=events", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("subscribe: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("subscribe: status %s", resp.Status)
	}
	rd := stream.NewReader(resp.Body)
	if ev, err := rd.ReadEvent(); err != nil || ev.Name != "snapshot" {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("subscribe: no snapshot (event %q, err %v)", ev.Name, err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			ev, err := rd.ReadEvent()
			if err != nil {
				return
			}
			// Only assigns are decoded: the reader shares the CPUs with
			// the daemon it measures.
			if ev.Name != string(stream.TopicEvents) || !bytes.Contains(ev.Data, assignKind) {
				continue
			}
			now := time.Now()
			var e sim.Event
			if json.Unmarshal(ev.Data, &e) == nil && e.Kind == sim.EventAssign {
				log.add(e.RequestID, e.Frame, now)
			}
		}
	}()
	return func() {
		cancel()
		resp.Body.Close()
		<-done
	}, nil
}

// send posts the schedule on one keep-alive connection, each request at
// its due time or, when the generator runs late, at once.
func send(base string, plan []planned) []outcome {
	client := &http.Client{Timeout: assignDeadline}
	defer client.CloseIdleConnections()
	out := make([]outcome, len(plan))
	start := time.Now()
	for k, p := range plan {
		due := start.Add(p.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		o := outcome{due: due, id: -1, sent: time.Now()}
		resp, err := client.Post(base+"/v1/requests", "application/json", bytes.NewReader(p.body))
		o.acked = time.Now()
		switch {
		case err != nil:
			o.err = err
		case resp.StatusCode == http.StatusCreated:
			var created struct {
				ID int `json:"id"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
				o.err = fmt.Errorf("decode 201: %w", err)
			} else {
				o.id = created.ID
			}
		case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable:
			o.shed = true
		default:
			o.err = fmt.Errorf("POST /v1/requests: status %s", resp.Status)
		}
		if resp != nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		out[k] = o
	}
	return out
}

// serveRun is everything one pass against a daemon measured.
type serveRun struct {
	outcomes []outcome
	assigns  *assignLog
	setupS   dist
	frameMs  dist // dispatchd frame wall time, per frame
	rssMB    float64
	dropped  float64
	failed   int
	assignMs dist // due → assign event, per request; failed ones are +Inf
	// cycleMs is each request's time in the daemon's frame cycle: from
	// its 201 to its assign event (+Inf when it failed).
	cycleMs dist
	// frameWeighted is the wall time of the frame that assigned each
	// request, one sample per assigned request.
	frameWeighted dist
	completedPerS float64
}

// pass starts the daemons, sends the schedule, waits for the
// assignments, reads the daemon's own counters, and checks the outputs.
func (s serve) pass(res *result) (*serveRun, error) {
	plan, err := schedule(s.seed, s.window, serveRate)
	if err != nil {
		return nil, err
	}
	run := &serveRun{assigns: &assignLog{at: map[int][]time.Time{}, frame: map[int]int{}}}
	var d *daemon
	for k := 0; k < serveSetups; k++ {
		dk, took, err := s.startDaemon(k)
		if err != nil {
			if d != nil {
				d.stop()
			}
			return nil, err
		}
		run.setupS = append(run.setupS, took.Seconds())
		if d != nil {
			d.stop()
		}
		d = dk
	}
	defer d.stop()

	stopWatch, err := watch(d.base, run.assigns)
	if err != nil {
		return nil, err
	}
	firstFrame, err := currentFrame(d.base)
	if err != nil {
		stopWatch()
		return nil, err
	}
	run.outcomes = send(d.base, plan)
	waitAssigned(run.outcomes, run.assigns)
	// Keep watching a few more frames, so that a second assign of a
	// request would still be seen.
	time.Sleep(3 * serveTick)
	lastFrame, err := currentFrame(d.base)
	if err != nil {
		stopWatch()
		return nil, err
	}
	stopWatch()

	frameNs, err := frameTimes(d.base, firstFrame, lastFrame)
	if err != nil {
		return nil, err
	}
	for _, ns := range frameNs {
		run.frameMs = append(run.frameMs, ns/1e6)
	}
	if run.dropped, err = promCounter(d.base, "stream_dropped_total"); err != nil {
		return nil, err
	}
	if run.rssMB, err = peakRSSMB(strconv.Itoa(d.cmd.Process.Pid)); err != nil {
		return nil, err
	}
	account(run, frameNs, res)
	checkCertificates(d.base, run.assigns, res)
	return run, nil
}

// waitAssigned returns once every accepted request has an assign event
// or the last deadline has passed.
func waitAssigned(outs []outcome, log *assignLog) {
	last := time.Now()
	for _, o := range outs {
		if dl := o.due.Add(assignDeadline); dl.After(last) {
			last = dl
		}
	}
	for time.Now().Before(last) {
		missing := false
		for _, o := range outs {
			if _, ok := log.first(o.id); o.id >= 0 && !ok {
				missing = true
				break
			}
		}
		if !missing {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// account turns the outcomes into latencies and failures, and checks
// that every accepted request was assigned exactly once. A request
// fails when it is shed, errors, or gets no assign event within
// assignDeadline of its due time; a failed request misses every latency
// limit, so its latency sample is +Inf.
func account(run *serveRun, frameNs map[int64]float64, res *result) {
	accepted := make(map[int]bool, len(run.outcomes))
	var firstDue, lastAssign time.Time
	completed := 0
	for k, o := range run.outcomes {
		if k == 0 {
			firstDue = o.due
		}
		at, ok := run.assigns.first(o.id)
		if o.id < 0 || !ok || at.Sub(o.due) > assignDeadline {
			run.failed++
			run.assignMs = append(run.assignMs, math.Inf(1))
			run.cycleMs = append(run.cycleMs, math.Inf(1))
			if o.err != nil {
				res.note("request %d: %v", k, o.err)
			}
		} else {
			completed++
			run.assignMs = append(run.assignMs, float64(at.Sub(o.due))/1e6)
			run.cycleMs = append(run.cycleMs, max(0, float64(at.Sub(o.acked))/1e6))
			if at.After(lastAssign) {
				lastAssign = at
			}
		}
		if o.id < 0 {
			continue
		}
		accepted[o.id] = true
		run.assigns.mu.Lock()
		n, frame := len(run.assigns.at[o.id]), run.assigns.frame[o.id]
		run.assigns.mu.Unlock()
		switch {
		case n == 0:
			res.fail("request %d (id %d) was accepted but never assigned", k, o.id)
		case n > 1:
			res.fail("request id %d was assigned %d times", o.id, n)
		default:
			if ns, ok := frameNs[int64(frame)]; ok {
				run.frameWeighted = append(run.frameWeighted, ns/1e6)
			}
		}
	}
	run.assigns.mu.Lock()
	for id := range run.assigns.at {
		if !accepted[id] {
			res.fail("assign event for request id %d, which no 201 returned", id)
		}
	}
	run.assigns.mu.Unlock()
	if completed > 0 {
		run.completedPerS = float64(completed) / lastAssign.Sub(firstDue).Seconds()
	}
}

func currentFrame(base string) (int64, error) {
	var h struct {
		Frame int64 `json:"frame"`
	}
	if err := getJSON(base+"/healthz", &h); err != nil {
		return 0, err
	}
	return h.Frame, nil
}

// frameTimes reads each frame's wall time in [from, to] from the
// daemon's KPI time series, keyed by frame.
func frameTimes(base string, from, to int64) (map[int64]float64, error) {
	var ts struct {
		Frames []int64              `json:"frames"`
		Series map[string][]float64 `json:"series"`
	}
	url := fmt.Sprintf("%s/v1/timeseries?series=frame_ns&from=%d&to=%d", base, from, to)
	if err := getJSON(url, &ts); err != nil {
		return nil, err
	}
	vals := ts.Series["frame_ns"]
	if len(vals) != len(ts.Frames) {
		return nil, fmt.Errorf("timeseries: %d frames but %d frame_ns values", len(ts.Frames), len(vals))
	}
	out := make(map[int64]float64, len(vals))
	for k, f := range ts.Frames {
		out[f] = vals[k]
	}
	return out, nil
}

// promCounter reads one unlabelled counter from /v1/metrics.
func promCounter(base, name string) (float64, error) {
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, fmt.Errorf("/v1/metrics has no %s", name)
}

// checkCertificates fetches the stability certificates of up to
// certSamples frames that assigned requests, spread over the run, and
// fails the run on any blocking pair.
func checkCertificates(base string, log *assignLog, res *result) {
	log.mu.Lock()
	seen := map[int]bool{}
	var frames []int
	for _, f := range log.frame {
		if !seen[f] {
			seen[f] = true
			frames = append(frames, f)
		}
	}
	log.mu.Unlock()
	sort.Ints(frames)
	if len(frames) == 0 {
		res.fail("no frame assigned any request")
		return
	}
	step := max(1, len(frames)/certSamples)
	for k := 0; k < len(frames); k += step {
		var cert struct {
			Stable          bool `json:"stable"`
			ViolationsTotal int  `json:"violationsTotal"`
		}
		if err := getJSON(fmt.Sprintf("%s/v1/frames/%d/stability", base, frames[k]), &cert); err != nil {
			res.fail("frame %d: stability certificate: %v", frames[k], err)
			continue
		}
		if !cert.Stable || cert.ViolationsTotal > 0 {
			res.fail("frame %d: certificate reports %d blocking pairs", frames[k], cert.ViolationsTotal)
		}
	}
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

// run measures the serving workload untraced.
func (s serve) run(res *result) error {
	run, err := s.pass(res)
	if err != nil {
		return err
	}
	res.Attempted += len(run.outcomes)
	res.Failed += run.failed
	res.set("setup_s", "s", run.setupS.median(), len(run.setupS))
	res.set("sim_req_per_s", "1/s", run.completedPerS, len(run.outcomes)-run.failed)
	// A run has about ten frames per second, too few for a frame p99
	// with ten frames beyond it; the frame metrics are taken per request
	// instead, over the part of its latency the frame cycle makes up.
	if err := setLatency(res, "frame", run.cycleMs); err != nil {
		return err
	}
	if err := setLatency(res, "assign", run.assignMs); err != nil {
		return err
	}
	res.set("peak_rss_mb", "MB", run.rssMB, 1)
	return nil
}

// setLatency records <prefix>_p50_ms and <prefix>_p99_ms. A percentile
// that lands on a failed request is infinite; it is reported as the
// largest float, which misses every limit.
func setLatency(res *result, prefix string, d dist) error {
	if err := res.setQuantiles(prefix, "ms", d); err != nil {
		return err
	}
	for _, q := range []string{"_p50_ms", "_p99_ms"} {
		if m := res.Metrics[prefix+q]; math.IsInf(m.Value, 1) {
			m.Value = math.MaxFloat64
			res.Metrics[prefix+q] = m
		}
	}
	return nil
}

// trace runs the workload untraced, then again recording one span tree
// per request, and reports the per-layer metrics and the tracing
// overhead on the assignment latency.
func (s serve) trace(res *result, spanPath string) error {
	plain, err := s.pass(res)
	if err != nil {
		return err
	}
	rec := newSpans()
	traced, err := s.pass(res)
	if err != nil {
		return err
	}
	res.Attempted += len(plain.outcomes) + len(traced.outcomes)
	res.Failed += plain.failed + traced.failed

	var accept, late dist
	shed := 0
	for k, o := range traced.outcomes {
		late = append(late, float64(o.sent.Sub(o.due))/1e6)
		if o.shed {
			shed++
		}
		end := o.acked
		at, assigned := traced.assigns.first(o.id)
		if assigned && at.After(end) {
			end = at
		}
		root := rec.add("request", 0, k, o.due, end)
		rec.add("gen.wait", root, k, o.due, o.sent)
		rec.add("admission.accept", root, k, o.sent, o.acked)
		if o.id >= 0 {
			accept = append(accept, float64(o.acked.Sub(o.sent))/1e6)
		}
		if assigned && at.After(o.acked) {
			rec.add("assign.wait", root, k, o.acked, at)
		}
	}
	if err := res.setQuantiles("admission.accept", "ms", accept); err != nil {
		return err
	}
	res.set("admission.shed", "count", float64(shed), len(traced.outcomes))
	if err := res.setQuantiles("dispatchd.frame", "ms", traced.frameWeighted); err != nil {
		return err
	}
	overruns := 0
	for _, ms := range traced.frameMs {
		if ms > float64(serveTick)/1e6 {
			overruns++
		}
	}
	res.set("dispatchd.tick_overrun_frac", "ratio", float64(overruns)/float64(max(1, len(traced.frameMs))), len(traced.frameMs))
	res.set("stream.dropped", "count", traced.dropped, 1)
	if err := res.setQuantiles("gen.late", "ms", late); err != nil {
		return err
	}

	p50, _, err := plain.assignMs.quantiles()
	if err != nil {
		return err
	}
	tp50, _, err := traced.assignMs.quantiles()
	if err != nil {
		return err
	}
	res.set("trace.overhead_frac", "ratio", tp50/p50-1, len(traced.assignMs))
	res.note("assign_p50_ms untraced %.4f traced %.4f", p50, tp50)
	lts := layerTimes(rec.list)
	for _, name := range []string{"request", "gen.wait", "admission.accept", "assign.wait"} {
		lt := lts[name]
		if lt == nil {
			continue
		}
		res.note("span %-17s n=%-5d mean %.3f ms, mean self %.3f ms", name, lt.n, lt.totalUs/1e3/float64(lt.n), lt.selfUs/1e3/float64(lt.n))
	}
	return rec.write(spanPath)
}
