// Command perfbench is the repository's benchmark. It runs one workload
// against the simulator's Go API inside this single process, checks that
// every output is correct, and prints every metric by name and unit,
// ending with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash perfbench/run.sh --workload table1-cg|table2-mmp|serve \
//	    --seed N --seconds S --trace 0|1
//
// --trace 0 measures the end-to-end metrics; --trace 1 is a separate run
// that also times calls into each module from outside and prints the
// per-layer metrics. README.md describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"
)

// runLimit bounds one run, build excluded: past it the run cancels its
// work, cleans up and exits without a result.
const runLimit = 170 * time.Second

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run. Every workload reports
// every one of them; README.md gives each workload's definition.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"sim_accesses_per_cpu_ms", "accesses/ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run. A workload that does not
// exercise a layer reports 0 for it (README.md lists which are which).
var perLayer = []metricDef{
	// Workload-specific end-to-end figures, bounded nowhere because no
	// other workload has them; the untraced run prints them too.
	{"speedup_err_pct", "%"},
	{"miss_p50_ms", "ms"},
	{"miss_p90_ms", "ms"},
	{"hit_p50_ms", "ms"},
	{"hit_p99_ms", "ms"},
	{"hit_cpu_us_per_req", "us"},
	{"hit_capacity_rps", "req/s"},
	{"twin_p50_ms", "ms"},

	{"workloads.input_ms", "ms"},
	{"workloads.reference_ms", "ms"},
	{"core.new_system_ms", "ms"},
	{"sim.exec_cpu_s", "s"},
	{"sim.ns_per_access.conventional", "ns"},
	{"sim.ns_per_access.scatter_gather", "ns"},
	{"sim.ns_per_access.recolor", "ns"},
	{"sim.ns_per_access.nocopy", "ns"},
	{"sim.ns_per_access.copy", "ns"},
	{"sim.ns_per_access.remap", "ns"},
	{"sim.accesses", "count"},
	{"sim.cycles", "count"},
	{"harness.cells_recorded", "count"},
	{"harness.cells_replayed", "count"},
	{"harness.cells_executed", "count"},
	{"harness.record_ms", "ms"},
	{"harness.replay_apply_ms", "ms"},
	{"tracefile.decode_ms", "ms"},
	{"harness.pool_occupancy", "ratio"},
	{"cache.l1_load_hits", "count"},
	{"cache.l2_load_hits", "count"},
	{"cache.mem_loads", "count"},
	{"tlb.misses", "count"},
	{"bus.bytes", "bytes"},
	{"mc.shadow_reads", "count"},
	{"mc.shadow_dram_reads", "count"},
	{"mc.prefetch_hits", "count"},
	{"dram.row_hits", "count"},
	{"dram.row_misses", "count"},
	{"colres.encode_us", "us"},
	{"colres.blob_bytes", "bytes"},
	{"colres.decode_us", "us"},
	{"colres.render_json_us", "us"},
	{"colres.render_text_us", "us"},
	{"service.spec_us", "us"},
	{"service.submit_hit_us", "us"},
	{"service.http_hit_us", "us"},
	{"service.execute_ms", "ms"},
	{"service.miss_overhead_ms", "ms"},
	{"fleet.route_overhead_us", "us"},
	{"fleet.owner_ns", "ns"},
	{"store.open_ms", "ms"},
	{"store.put_ms", "ms"},
	{"store.get_us", "us"},
	{"twin.predict_us.superpage", "us"},
	{"twin.predict_us.sram", "us"},
	{"twin.predict_us.stride", "us"},
	{"load.lag_ms", "ms"},
}

// errCheck marks a failed correctness check: the program produced a
// wrong output, as opposed to the run being cut short.
var errCheck = errors.New("check failed")

func checkf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCheck, fmt.Sprintf(format, args...))
}

// phase counts the operations one phase of a run attempted and failed.
type phase struct {
	name              string
	attempted, failed int64
}

// result is what a workload run measured.
type result struct {
	phases []phase
	values map[string]float64 // metric name -> value
}

func newResult() *result { return &result{values: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) addPhase(name string, attempted, failed int64) {
	r.phases = append(r.phases, phase{name, attempted, failed})
}

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type reportOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// report builds the final JSON object: the end-to-end metrics of an
// untraced run or the per-layer metrics of a traced one.
func report(res *result, trace, correct bool) (reportOut, error) {
	out := reportOut{Correct: correct, Metrics: map[string]metricOut{}}
	for _, p := range res.phases {
		out.Attempted += p.attempted
		out.Failed += p.failed
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := res.values[d.name]
		if !ok && !trace {
			if correct {
				return out, fmt.Errorf("end-to-end metric %s was not measured", d.name)
			}
			continue // a failed check may stop a run before it measures everything
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	return out, nil
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}

// printHuman lists every phase and every value measured, one per line.
func printHuman(res *result) {
	for _, p := range res.phases {
		fmt.Printf("phase %-10s attempted %d failed %d\n", p.name, p.attempted, p.failed)
	}
	names := make([]string, 0, len(res.values))
	for n := range res.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %.6g %s\n", n, res.values[n], unitOf(n))
	}
}

func runWorkload(ctx context.Context, cfg config) (*result, error) {
	switch cfg.workload {
	case "table1-cg":
		return runTable(ctx, table1CG(), cfg)
	case "table2-mmp":
		return runTable(ctx, table2MMP(), cfg)
	case "serve":
		return runServe(ctx, defaultServeParams(cfg))
	}
	return nil, fmt.Errorf("unknown workload %q (table1-cg|table2-mmp|serve)", cfg.workload)
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "table1-cg, table2-mmp or serve")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	flag.IntVar(&seconds, "seconds", 30, "how long the run measures")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run that prints per-layer metrics")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds >= 1 and --trace 0|1")
		return 2
	}
	cfg.seconds, cfg.trace = time.Duration(seconds)*time.Second, trace == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()

	res, err := runWorkload(ctx, cfg)
	if err != nil && !errors.Is(err, errCheck) {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	if res == nil {
		res = newResult()
	}
	printHuman(res)
	out, rerr := report(res, cfg.trace, err == nil)
	if rerr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", rerr)
		return 2
	}
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}
