// Command dispatchbench is the repository's benchmark. It runs one
// workload sized by a time budget and prints, as the last line of
// standard output, one JSON object with the run's correctness verdict,
// its operation counts, and its metrics:
//
//	dispatchbench -workload nyc-backlog -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it measures the end-to-end metrics with no tracing;
// with -trace 1 it runs the workload once more with spans around every
// layer call and prints the per-layer metrics and the tracing overhead.
// README.md names the workloads, the metrics, and which end-to-end
// metric each layer metric should move.
//
// The offline workloads drive the simulator in process through sim.New
// and Simulator.Step; the serve workload drives a dispatchd binary over
// HTTP and server-sent events. run.sh builds both from the checkout.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// endToEnd lists the metrics a -trace 0 run prints, on every workload.
var endToEnd = []string{
	"setup_s", "sim_req_per_s", "frame_p50_ms", "frame_p99_ms",
	"assign_p50_ms", "assign_p99_ms", "peak_rss_mb",
}

// perLayer lists the metrics a -trace 1 run prints, on every workload,
// with their units. A layer the workload does not exercise reads 0 with
// 0 samples.
var perLayer = []struct{ name, unit string }{
	{"sim.engine_us_per_frame", "us"}, {"sim.pending_mean", "count"}, {"sim.idle_taxis_mean", "count"},
	{"dispatch.us_per_frame", "us"}, {"dispatch.assign_per_frame", "count"}, {"dispatch.assign_yield", "ratio"},
	{"costplane.us_per_frame", "us"}, {"costplane.cells_per_frame", "count"}, {"costplane.kept_frac", "ratio"},
	{"pref.us_per_frame", "us"}, {"pref.acceptable_pairs_per_frame", "count"},
	{"stable.us_per_frame", "us"}, {"stable.proposals_per_frame", "count"}, {"stable.matched_frac", "ratio"},
	{"share.groups_us_per_frame", "us"}, {"share.groups_per_frame", "count"}, {"share.market_us_per_frame", "us"},
	{"setpack.us_per_frame", "us"}, {"share.shared_frac", "ratio"},
	{"admission.accept_p50_ms", "ms"}, {"admission.accept_p99_ms", "ms"}, {"admission.shed", "count"},
	{"dispatchd.frame_p50_ms", "ms"}, {"dispatchd.frame_p99_ms", "ms"}, {"dispatchd.tick_overrun_frac", "ratio"},
	{"stream.dropped", "count"}, {"gen.late_p99_ms", "ms"},
	{"runtime.alloc_mb_per_frame", "MB"}, {"runtime.gc_cpu_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind the value
}

// result is the run's output line, plus the notes and failed checks
// printed above it.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     []string
}

func newResult() *result { return &result{Correct: true, Metrics: map[string]metric{}} }

// set records a metric with the number of samples behind it.
func (r *result) set(name, unit string, v float64, n int) {
	r.Metrics[name] = metric{Value: v, Unit: unit, n: n}
}

// setQuantiles records <prefix>_p50_<unit> and <prefix>_p99_<unit>.
func (r *result) setQuantiles(prefix, unit string, d dist) error {
	p50, p99, err := d.quantiles()
	if err != nil {
		return fmt.Errorf("%s: %w", prefix, err)
	}
	r.set(prefix+"_p50_"+unit, unit, p50, len(d))
	r.set(prefix+"_p99_"+unit, unit, p99, len(d))
	return nil
}

// fail marks the run incorrect and says why.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.note("CHECK FAILED: "+format, args...)
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes the notes and a table of the named metrics, then the
// JSON line with only those metrics. A metric the run did not measure is
// printed as 0 in the given unit.
func (r *result) print(names, units []string) error {
	for _, n := range r.notes {
		fmt.Println("#", n)
	}
	out := *r
	out.Metrics = make(map[string]metric, len(names))
	for k, name := range names {
		m, ok := r.Metrics[name]
		if !ok {
			m = metric{Unit: units[k]}
		}
		out.Metrics[name] = m
		fmt.Printf("# %-34s %14.6g %-6s n=%d\n", name, m.Value, m.Unit, m.n)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// references holds, per offline workload, the check string of every
// pool day, indexed by pool day.
type references map[string][]string

//go:embed reference.json
var referenceJSON []byte

func (r references) lookup(workload string, day int) (string, bool) {
	days := r[workload]
	if day < 0 || day >= len(days) || days[day] == "" {
		return "", false
	}
	return days[day], true
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dispatchbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dispatchbench", flag.ContinueOnError)
	var (
		workload  = fs.String("workload", "", "workload: nyc-backlog, boston-share, or serve")
		seed      = fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds   = fs.Float64("seconds", 20, "time budget: sets how many days an offline workload simulates, and how long serve sends")
		traced    = fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
		dispatchd = fs.String("dispatchd", ".bench_build/bin/dispatchd", "dispatchd binary the serve workload starts")
		outDir    = fs.String("out", ".bench_build/out", "directory for the traced run's spans and the daemon logs")
		writeRef  = fs.String("write-reference", "", "simulate every reference day and write the check strings to this file, then exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *writeRef != "" {
		return writeReferences(*writeRef)
	}
	var ref references
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return fmt.Errorf("stored reference: %w", err)
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *traced)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	spanPath := filepath.Join(*outDir, *workload+"-seed"+strconv.FormatInt(*seed, 10)+".jsonl")

	res := newResult()
	var err error
	switch *workload {
	case nycBacklog.name, bostonShare.name:
		w := nycBacklog
		if *workload == bostonShare.name {
			w = bostonShare
		}
		w = w.forBudget(*seconds)
		if *traced == 1 {
			err = w.trace(*seed, ref, res, spanPath)
		} else {
			err = w.run(*seed, ref, res)
		}
	case "serve":
		sv := serve{binary: *dispatchd, seed: *seed, window: time.Duration(*seconds * float64(time.Second)), logDir: *outDir}
		if *traced == 1 {
			err = sv.trace(res, spanPath)
		} else {
			err = sv.run(res)
		}
	default:
		return fmt.Errorf("unknown workload %q (want nyc-backlog, boston-share, or serve)", *workload)
	}
	if err != nil {
		return err
	}
	var names, units []string
	if *traced == 1 {
		for _, m := range perLayer {
			names, units = append(names, m.name), append(units, m.unit)
		}
	} else {
		for _, name := range endToEnd {
			m, ok := res.Metrics[name]
			if !ok {
				return fmt.Errorf("workload %s did not measure %s", *workload, name)
			}
			names, units = append(names, name), append(units, m.Unit)
		}
	}
	if err := res.print(names, units); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("output checks failed")
	}
	return nil
}

// writeReferences simulates every pool day of both offline workloads and
// stores their check strings. Run it only when a change is meant to
// alter the simulation's outputs.
func writeReferences(path string) error {
	ref := references{}
	for _, w := range []offline{nycBacklog, bostonShare} {
		days := make([]string, w.pool)
		for k := range days {
			dg := newDigest()
			s, in, _, err := w.setup(k, w.dispatcher(), dg)
			if err != nil {
				return err
			}
			run, err := simulate(s, in, dg, nil)
			if err != nil {
				return err
			}
			days[k] = run.check
			fmt.Fprintf(os.Stderr, "%s day %d: %s\n", w.name, k, run.check)
		}
		ref[w.name] = days
	}
	b, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// peakRSSMB reads VmHWM, the peak resident set size, of a process
// ("self" or a PID) from /proc.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, fmt.Errorf("peak RSS: %w", err)
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/%s/status", pid)
}
