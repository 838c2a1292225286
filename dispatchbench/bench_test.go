package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestScheduleIsSeeded(t *testing.T) {
	a, err := schedule(7, 2*time.Second, 200)
	if err != nil {
		t.Fatal(err)
	}
	b, err := schedule(7, 2*time.Second, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if len(a) != 400 {
		t.Fatalf("got %d requests, want 200/s over 2s = 400", len(a))
	}
	for k := 1; k < len(a); k++ {
		if a[k].due < a[k-1].due || a[k].due >= 2*time.Second {
			t.Fatalf("request %d due at %v: not sorted within the window", k, a[k].due)
		}
	}
	c, err := schedule(8, 2*time.Second, 200)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 gave the same schedule")
	}
}

func TestOfflineInputsAreSeeded(t *testing.T) {
	for _, w := range []offline{nycBacklog.forBudget(20), bostonShare.forBudget(20)} {
		if w.days < 2 {
			t.Fatalf("%s: a 20s budget buys %d days", w.name, w.days)
		}
		for d := 0; d < w.days; d++ {
			if w.dayIndex(3, d) != w.dayIndex(3, d) || w.dayIndex(-3, d) < 0 || w.dayIndex(3, d) >= w.pool {
				t.Fatalf("%s: day index of seed 3 day %d is %d, want a stable index in [0,%d)", w.name, d, w.dayIndex(3, d), w.pool)
			}
		}
	}
	a, err := bostonShare.generate(5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bostonShare.generate(5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same pool day generated two different inputs")
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for k := range s {
			s[k] = float64(k + 1)
		}
		return s
	}
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // 10 beyond
		{999, 0.99, 0, false},   // rank 990, 9 beyond
		{20, 0.50, 10, true},    // 10 beyond
		{19, 0.50, 0, false},    // rank 10, 9 beyond
		{0, 0.50, 0, false},
	}
	for _, c := range cases {
		got, err := percentile(seq(c.n), c.q)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("percentile(1..%d, %g) = %v, %v; want %v, ok=%v", c.n, c.q, got, err, c.want, c.ok)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	list := []span{
		{ID: 1, Name: "step", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 40},   // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},  // clipped at the parent's end
		{ID: 5, Parent: 2, Name: "a.1", Start: 12, End: 18}, // grandchild: only a loses it
		{ID: 6, Name: "other", Start: 0, End: 5},
	}
	got := selfTimes(list)
	want := []int64{100 - 30 - 10, 20 - 6, 20, 30, 6, 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
	lt := layerTimes(list)
	if lt["step"].selfUs != 0.06 || lt["a"].totalUs != 0.02 || lt["a"].n != 1 {
		t.Fatalf("layer times: step self %v us, a total %v us", lt["step"].selfUs, lt["a"].totalUs)
	}
}

// stubDaemon answers POST /v1/requests like dispatchd, slowly for the
// first request and with a 429 for the third, and streams the given
// assign events after the connect snapshot.
func stubDaemon(t *testing.T, assigns []int) *httptest.Server {
	var posts atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/requests", func(w http.ResponseWriter, r *http.Request) {
		k := int(posts.Add(1)) - 1
		switch k {
		case 0:
			time.Sleep(40 * time.Millisecond)
		case 2:
			http.Error(w, `{"error":"shed"}`, http.StatusTooManyRequests)
			return
		}
		w.WriteHeader(http.StatusCreated)
		fmt.Fprintf(w, `{"id":%d,"frame":0}`, k)
	})
	mux.HandleFunc("GET /v1/stream", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		var b strings.Builder
		b.WriteString("event: snapshot\ndata: {}\n\n")
		for seq, id := range assigns {
			fmt.Fprintf(&b, "event: events\nid: %d\ndata: {\"frame\":%d,\"kind\":\"assign\",\"requestId\":%d,\"taxiId\":1}\n\n", seq+1, 3+id, id)
			fmt.Fprintf(&b, "event: events\nid: %d\ndata: {\"frame\":%d,\"kind\":\"pickup\",\"requestId\":%d,\"taxiId\":1}\n\n", seq+1, 9, id)
		}
		_, _ = w.Write([]byte(b.String()))
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestOpenLoopLatenessAndFailures(t *testing.T) {
	// Requests 0..4: 1 is assigned twice, 2 is shed, 3 is never assigned,
	// and 99 was never returned by a 201.
	srv := stubDaemon(t, []int{0, 1, 1, 4, 99})
	log := &assignLog{at: map[int][]time.Time{}, frame: map[int]int{}}
	stop, err := watch(srv.URL, log)
	if err != nil {
		t.Fatal(err)
	}
	plan := make([]planned, 5)
	for k := range plan {
		plan[k] = planned{due: time.Duration(k) * time.Millisecond, body: []byte(`{}`)}
	}
	outs := send(srv.URL, plan)
	deadline := time.Now().Add(5 * time.Second)
	for _, id := range []int{0, 1, 4, 99} {
		for {
			if _, ok := log.first(id); ok {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("assign of request %d never read from the stream", id)
			}
			time.Sleep(time.Millisecond)
		}
	}
	stop()

	// The first POST took 40ms, so every later request was sent late
	// and its lateness is measured from its due time.
	for k := 1; k < len(outs); k++ {
		if late := outs[k].sent.Sub(outs[k].due); late < 30*time.Millisecond {
			t.Errorf("request %d sent %v after its due time, want the 40ms stall to show", k, late)
		}
	}
	if !outs[2].shed || outs[2].id != -1 {
		t.Errorf("request 2: shed=%v id=%d, want shed", outs[2].shed, outs[2].id)
	}

	// Request 4's assign arrived more than the deadline after its due
	// time: it counts as failed though it was assigned.
	outs[4].due = outs[4].due.Add(-2 * assignDeadline)
	res := newResult()
	run := &serveRun{outcomes: outs, assigns: log}
	account(run, map[int64]float64{3: 5e6, 4: 7e6}, res)
	if run.failed != 3 {
		t.Errorf("failed = %d, want 3 (shed, never assigned, assigned too late)", run.failed)
	}
	inf := 0
	for _, v := range run.assignMs {
		if math.IsInf(v, 1) {
			inf++
		}
	}
	if inf != 3 || len(run.assignMs) != 5 || len(run.cycleMs) != 5 {
		t.Errorf("%d of %d latency samples are +Inf, want 3 of 5", inf, len(run.assignMs))
	}
	if c := run.cycleMs[0]; math.IsInf(c, 1) || c < 0 || c > float64(run.assignMs[0]) {
		t.Errorf("request 0 spent %vms in the frame cycle of a %vms latency", c, run.assignMs[0])
	}
	if res.Correct {
		t.Fatal("run with a double assignment, a lost request and a stray assign passed its checks")
	}
	msgs := strings.Join(res.notes, "\n")
	for _, want := range []string{"assigned 2 times", "never assigned", "id 99"} {
		if !strings.Contains(msgs, want) {
			t.Errorf("checks do not report %q:\n%s", want, msgs)
		}
	}
	if !reflect.DeepEqual(run.frameWeighted, dist{5}) {
		t.Errorf("frame samples %v, want request 0's frame only", run.frameWeighted)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the printed metrics in step
// with the repository's BENCHMARK.json.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string }       `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json lists %v", endToEnd, e2e)
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, BENCHMARK.json lists %d", len(perLayer), len(spec.PerLayer))
	}
	for k, m := range spec.PerLayer {
		if m.Name != perLayer[k].name || m.Unit != perLayer[k].unit {
			t.Errorf("per-layer metric %d is %v, BENCHMARK.json lists %s %s", k, perLayer[k], m.Name, m.Unit)
		}
	}
}
