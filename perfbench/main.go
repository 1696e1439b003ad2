// Command perfbench is the repository benchmark. It drives P-Store from
// outside, from one load-generating process, on three workloads:
//
//   - oltp_wire: one durable node behind the HTTP front end, cold-restarted
//     from its data directory, then closed-loop clients sending the B2W
//     DefaultMix.
//   - sync_repl: a primary shipping its WAL to a warm follower under
//     synchronous commit, one closed-loop client sending B2W writes, then
//     cold restarts of the primary.
//   - elastic_day: the in-process cluster under the predictive controller,
//     one B2W day replayed as open-loop Poisson arrivals.
//
// Run it with
//
//	bash perfbench/run.sh --workload oltp_wire --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. With --trace 0 the metrics are the end-to-end ones;
// with --trace 1 the run times calls into each layer and reports the
// per-layer metrics instead, and writes its spans to .bench_out/. The line
// before it carries the run's metadata. A failed correctness gate prints
// the result with correct=false and exits 1.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// processStart is as close to process start as the program can observe;
// the first set-up is timed from here. startCPU are the host's CPU
// counters then.
var (
	processStart = time.Now()
	startCPU     = cpuTimes()
)

const (
	// defaultSeed is the seed runs use unless told otherwise.
	defaultSeed = 1
	// heldOutSeed is kept for checking a claimed gain on inputs that were
	// not used while the change was written.
	heldOutSeed = 7919
	// maxClients caps the closed-loop client count; the count is further
	// capped at the number of CPUs.
	maxClients = 2
	// setup_s and restart_s are medians over repeated set-ups and restarts:
	// at least minRounds, more while the rounds so far took less than
	// roundsBudget, at most maxRounds. Cheap ones are repeated more, which
	// steadies their medians.
	minRounds    = 9
	maxRounds    = 50
	roundsBudget = 1500 * time.Millisecond
	// minSliceSamples is the fewest completions a window slice holds on
	// average: its p99 then has ten samples beyond it.
	minSliceSamples = 1000
	// outDir receives the traced run's span file, under the checkout root.
	outDir = ".bench_out"
	// sloMs is the latency SLO of pstore serve (its -slo default).
	sloMs = 40
)

type options struct {
	workload string
	seed     int64
	seconds  int
	clients  int
	tr       *tracer
}

// report is what a workload measured.
type report struct {
	attempted, failed int64
	e2e               map[string]float64
	layer             map[string]float64
	info              map[string]any
	gates             []string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}, info: map[string]any{}}
}

// check records a failed correctness gate when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.gates = append(r.gates, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(context.Context, *options) (*report, error){
	"oltp_wire":   runOLTPWire,
	"sync_repl":   runSyncRepl,
	"elastic_day": runElasticDay,
}

// moreRounds reports whether another set-up or restart round should run
// after done rounds that began at start.
func moreRounds(done int, start time.Time) bool {
	return done < minRounds || (done < maxRounds && time.Since(start) < roundsBudget)
}

// clientCount is the closed-loop client count on a host with nproc CPUs.
func clientCount(nproc int) int {
	return max(1, min(maxClients, nproc))
}

func main() { os.Exit(run()) }

func run() int {
	o := &options{}
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: oltp_wire, sync_repl or elastic_day")
	flag.Int64Var(&o.seed, "seed", defaultSeed, fmt.Sprintf("input seed (held-out seed: %d)", heldOutSeed))
	flag.IntVar(&o.seconds, "seconds", 30, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	w, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload oltp_wire|sync_repl|elastic_day --seed N --seconds N --trace 0|1")
		return 2
	}
	o.clients = clientCount(runtime.NumCPU())
	if trace == 1 {
		o.tr = newTracer()
	}

	// A run must finish well inside the caller's limit; a hang fails it.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	rep, err := w(ctx, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	rep.e2e["peak_rss_mb"] = peakRSSMB()
	meta := runMetadata(o)
	meta["host_steal_frac"] = stealFrac(startCPU, cpuTimes())
	meta["e2e"] = rep.e2e
	for k, v := range rep.info {
		meta[k] = v
	}
	res, err := result(rep, trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if o.tr != nil {
		path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", o.workload, o.seed))
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		if err := o.tr.write(path, meta); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
	}
	printJSON(map[string]any{"meta": meta})
	printJSON(res)
	if len(rep.gates) > 0 {
		for _, g := range rep.gates {
			fmt.Fprintln(os.Stderr, "perfbench: correctness gate failed:", g)
		}
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result builds the last output line: every end-to-end metric, or with
// traced set every per-layer metric. A per-layer metric of a layer the
// workload does not exercise reads 0.
func result(rep *report, traced bool) (resultLine, error) {
	res := resultLine{Correct: len(rep.gates) == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: map[string]metricValue{}}
	if rep.attempted < 1 {
		return res, errors.New("no transaction was attempted")
	}
	if !traced {
		for _, m := range endToEnd {
			v, ok := rep.e2e[m.name]
			if !ok {
				return res, fmt.Errorf("workload did not measure %s", m.name)
			}
			res.Metrics[m.name] = metricValue{v, m.unit}
		}
		return res, nil
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metricValue{rep.layer[m.name], m.unit}
	}
	for name := range rep.layer {
		if _, ok := res.Metrics[name]; !ok {
			return res, fmt.Errorf("workload measured unlisted per-layer metric %s", name)
		}
	}
	return res, nil
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps and numbers are marshalled
	}
	fmt.Println(string(b))
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
