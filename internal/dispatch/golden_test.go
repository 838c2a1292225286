package dispatch

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"stabledispatch/internal/dtrace"
	"stabledispatch/internal/geo"
	"stabledispatch/internal/pref"
	"stabledispatch/internal/share"
	"stabledispatch/internal/sim"
	"stabledispatch/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenFrame is a contested Boston frame: more pending requests than
// idle taxis, all within the pickup threshold of one another, so the
// deferred acceptance records acceptances, refusals, displacements and
// exhausted requests.
func goldenFrame(t *testing.T) *sim.Frame { return bostonFrame(t, 9, 30, 12) }

// shareGoldenFrame is a smaller contested Boston frame whose packing
// stage forms pairs and triples, rejects groups for exceeding θ and for
// saving nothing, and takes local-search swaps.
func shareGoldenFrame(t *testing.T) *sim.Frame { return bostonFrame(t, 46, 12, 6) }

// bostonFrame builds frame 7 from the first requests of a seeded Boston
// day, with the first taxis of a seeded fleet all idle.
func bostonFrame(t *testing.T, seed int64, requests, taxis int) *sim.Frame {
	t.Helper()
	city := trace.Boston()
	reqs, err := trace.Generate(trace.Config{City: city, Frames: 60, RequestsPerDay: 30 * 24, Seats: 3, Seed: seed})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	fleet, err := trace.Taxis(city, 12, 10)
	if err != nil {
		t.Fatalf("Taxis: %v", err)
	}
	f := &sim.Frame{Number: 7, Requests: reqs[:requests], Metric: geo.EuclidMetric, Params: pref.DefaultParams()}
	for _, tx := range fleet[:taxis] {
		f.Taxis = append(f.Taxis, sim.TaxiView{ID: tx.ID, Pos: tx.Pos, Seats: tx.Seats, Idle: true})
	}
	return f
}

// tracedEvents runs one dispatch with decision tracing on and returns
// every recorded event as one JSON line, in recording order.
func tracedEvents(t *testing.T, d sim.Dispatcher, f *sim.Frame) []byte {
	t.Helper()
	was := dtrace.Enabled()
	rec := dtrace.Default()
	rec.Reset()
	dtrace.SetEnabled(true)
	defer func() {
		dtrace.SetEnabled(was)
		rec.Reset()
	}()
	if _, err := d.Dispatch(f); err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	type line struct {
		Request int          `json:"request"`
		Event   dtrace.Event `json:"event"`
	}
	var lines []line
	for _, tr := range rec.Snapshot() {
		for _, e := range tr.Events {
			lines = append(lines, line{tr.RequestID, e})
		}
	}
	sort.Slice(lines, func(a, b int) bool { return lines[a].Event.Seq < lines[b].Event.Seq })
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, l := range lines {
		if err := enc.Encode(l); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for k := 0; k < len(gl) && k < len(wl); k++ {
			if !bytes.Equal(gl[k], wl[k]) {
				t.Fatalf("%s differs at line %d:\n got %s\nwant %s", name, k+1, gl[k], wl[k])
			}
		}
		t.Fatalf("%s differs: %d lines, want %d", name, len(gl), len(wl))
	}
}

// TestTracedFrameGolden pins one traced NSTD-P frame's, one traced
// NSTD-T frame's and one traced STD-P frame's decision events byte for
// byte: candidate shortlists with their costs, every proposal with both
// ranks, the rival evidence of each refusal and displacement, and for
// STD-P every share-group decision and set-packing move with its detail
// string. Each frame must produce the listed proposal outcomes and
// event outcomes, so each event shape is pinned.
func TestTracedFrameGolden(t *testing.T) {
	for _, tc := range []struct {
		d        sim.Dispatcher
		frame    func(*testing.T) *sim.Frame
		file     string
		outcomes []string
		kinds    []string
	}{
		{NewNSTDP(), goldenFrame, "dtrace_nstd_p.golden", []string{"accepted", "refused", "displaced", "exhausted"}, nil},
		{NewNSTDT(), goldenFrame, "dtrace_nstd_t.golden", []string{"accepted", "refused_taxi", "upgraded"}, nil},
		{NewSTDP(share.DefaultPackConfig()), shareGoldenFrame, "dtrace_std_p.golden", []string{"accepted", "refused", "displaced", "exhausted"},
			[]string{"group_formed/feasible", "group_rejected/detour_exceeded", "group_rejected/no_savings",
				"pack_pick/packed", "pack_swap/swapped_out", "pack_swap/swapped_in"}},
	} {
		t.Run(tc.d.Name(), func(t *testing.T) {
			got := tracedEvents(t, tc.d, tc.frame(t))
			proposals, events := map[string]bool{}, map[string]bool{}
			for _, l := range bytes.Split(bytes.TrimSpace(got), []byte("\n")) {
				var v struct{ Event dtrace.Event }
				if err := json.Unmarshal(l, &v); err != nil {
					t.Fatal(err)
				}
				if v.Event.Kind == dtrace.KindPropose {
					proposals[v.Event.Outcome] = true
				}
				events[string(v.Event.Kind)+"/"+v.Event.Outcome] = true
			}
			for _, o := range tc.outcomes {
				if !proposals[o] {
					t.Errorf("frame produced no %q proposal", o)
				}
			}
			for _, k := range tc.kinds {
				if !events[k] {
					t.Errorf("frame produced no %q event", k)
				}
			}
			checkGolden(t, tc.file, got)
		})
	}
}
