// Command rangebench is the benchmark of the SG-ML cyber range: it compiles
// the models, drives the three workloads below from one process, checks that
// every result is correct, and prints every metric by name with its unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root with
//
//	bash rangebench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --seed fixes every generated input (schedules and seed lists); the
// program under test sees only those inputs. --seconds is how long the
// workload's closed loop runs. The process exits non-zero when any
// operation fails or a correctness gate does not hold.
//
// # Workloads
//
// One process, one client, at most nproc workers.
//
//   - xl-interactive: the 10×50 XL model (510 IEDs), compiled and started
//     once, stepped in a closed loop. Before every step the operator script
//     rescales a load through Sim.Apply; every 20–30 steps it opens a
//     breaker instead, and closes it at the next such point. The step path
//     (powerflow, powersim publishing onto kvbus, ied, the parallel engine)
//     does nearly all the work; the flips put topology rebuilds into the
//     tail. An operation is one step.
//   - campaign-5x20: back-to-back sgml.RunCampaign sweeps of the 6-step
//     trip/shed/heal drill on the 5×20 model, 20 runs per sweep with seeds
//     drawn from a pool of 24, WithWorkers(nproc) and WithStore into a fresh
//     directory per sweep. Fork, start, stop, the worker pool and the
//     per-run fsync carry a large share of each short, cold run. An
//     operation is one run; latency is timed per sweep, the call an
//     experimenter waits for, whose p99 is steadier than a single run's on
//     a shared host.
//   - epic-redblue: forked EPIC red/blue drills of 16 steps through
//     sgml.RunCompiled, one seed per drill from a pool of 4: deployIDS,
//     portScan, falseCommand on the scan alert, a 3-step mitm on the write
//     alert, modbusTamper on the ARP-spoof alert. The only workload that
//     reaches netem TCP/ARP, MMS, Modbus, ids, plc and the scada HMI; its
//     time is mostly the port scan's SYN timers. An operation is one drill.
//
// # End-to-end metrics (--trace 0)
//
//   - setup_s (s): median over several set-ups of the time to turn the
//     model into a runnable root: sgml.Compile, plus Start on
//     xl-interactive, plus sgml.LoadModelFiles of the EPIC file set on
//     epic-redblue.
//   - latency_ms_p50, latency_ms_tail (ms): wall time of the operation a
//     user waits for: a step (scheduled event plus StepAll) on
//     xl-interactive, a sweep (one RunCampaign call of 20 runs) on
//     campaign-5x20, a drill (Fork → RunScenario → Stop, one RunCompiled
//     call) on epic-redblue. The tail is the highest percentile of 99.99,
//     99.9, 99, 95, 90, 75 with at least 10 samples beyond it, or the
//     median when there are fewer than 20 samples; the percentile and the
//     sample count are printed beside it.
//   - throughput_per_s (1/s): steps, runs or drills completed per second of
//     the operations' summed wall time.
//   - peak_rss_mb (MB): the process's peak resident memory up to the end of
//     the loop. The repeated set-ups and reference runs that only serve
//     setup_s and the correctness gates run after it where they can: every
//     compiled range that was started stays resident after Stop, about
//     115 MB per XL range and 24 MB per 5×20 range.
//
// The share of operations — steps, runs, drills — that errored or failed a
// check (failed_ratio) is the result's "failed" over "attempted".
//
// # Per-layer metrics (--trace 1)
//
// The traced run records spans (name, start, end, parent, run and step id)
// and counts around the benchmark's calls into each layer's public
// functions, keeps them in memory and writes them with their self times to
// .bench_build/rangebench/trace-<workload>-<seed>.jsonl. A span's self time
// is its duration minus the part of it its children cover. The per-layer
// step path comes from stepping ranges in StepAllSequential order with a
// span around each layer call: the interactive XL range, forks of the 5×20
// model running the campaign drill, forks of EPIC under the operator script.
//
// Emitted on every workload (the JSON line), with the end-to-end metric
// each should move:
//
//	core.compile_ms          Compile                        → setup_s
//	core.start_ms            Start                          → setup_s (xl), latency_ms_* (campaign, epic)
//	core.stop_ms             Stop                           → latency_ms_* (campaign, epic)
//	powersim.step_ms         Sim.Step                       → latency_ms_p50 (xl)
//	powerflow.solve_ms       Δ Sim.Stats solve time         → latency_ms_p50 (xl)
//	powersim.publish_ms      Sim.Step minus solve           → latency_ms_p50, peak_rss_mb (xl)
//	ied.step_ms              Σ IED.Step                     → latency_ms_p50 (xl)
//	powersim.allocs_per_step heap objects in Sim.Step       → latency_ms_p50, peak_rss_mb (xl)
//	ied.allocs_per_step      heap objects in the IED pass   → latency_ms_p50, peak_rss_mb (xl)
//	kvbus.keys               keys on the bus                → peak_rss_mb (xl)
//	powerflow.rebuild_step_ms steps with a cache miss       → latency_ms_tail (xl), throughput_per_s (campaign)
//	powerflow.cache_hit_ratio hits over solves              → latency_ms_tail (xl), throughput_per_s (campaign)
//	powersim.solve_failures  failed solves                  → latency_ms_tail (xl)
//	core.engine_gap_ms       untraced StepAll p50 minus traced layer sum p50
//	trace.overhead_ms        traced minus untraced operation p50
//	trace.layer_coverage     share of traced step time in layer self times
//
// In a traced run untraced operations alternate with traced ones: passes of
// the XL schedule, campaign sweeps, rounds of drills, forks. The traced
// step runs the layers in sequential order, so on stepped ranges
// trace.overhead_ms holds the engine difference too; adding
// core.engine_gap_ms leaves the tracing bookkeeping alone.
//
// Printed, and kept in the trace file, where the layer runs:
//
//	sgmlconf.load_ms                 LoadModelFiles (epic)      → setup_s
//	core.fork_ms                     Fork (campaign, epic)      → latency_ms_*, throughput_per_s
//	plc.scan_ms, scada.poll_ms       PLC.Scan, HMI.PollOnce (epic) → latency_ms_p50 (epic)
//	ids.deploy_step_ms, attack.portscan_step_ms, attack.fci_step_ms,
//	attack.mitm_step_ms, attack.modbus_step_ms, core.quiet_step_ms
//	                                 drill steps by the event fired in them,
//	                                 timed by core.WithRunProbe step starts
//	                                 in a one-worker RunCampaign (epic) → latency_ms_p50 (epic)
//	core.teardown_ms                 last step start to run end (epic)
//	trace.drill_coverage             share of traced drill time in its spans (epic)
//	netem.frames_per_run, netem.drop_ratio, netem.pool_hit_ratio,
//	ids.frames_per_run, ids.alerts_per_run   RunReport.Diag (epic) → latency_ms_p50 (epic)
//	store.put_ms, store.finish_ms    a timing wrapper around store.OpenJSONL
//	                                 attached with core.WithCampaignStore (campaign) → throughput_per_s
//	store.verify_ms                  sgml.VerifyStore (campaign); should stay flat
//	campaign.worker_busy_ratio       Σ(CompileTime + Duration) / (workers × wall) (campaign) → throughput_per_s
//
// # Correctness gates
//
//   - xl-interactive: every step succeeds with no solve failure, and the
//     solver rebuilds its topology on exactly the scheduled flips. After one
//     pass of the schedule the kv bus digest equals that of a second range
//     stepped through the same pass by StepAllSequential (untraced) or by
//     the traced loop (traced).
//   - campaign-5x20: rep.OK(), every run's fingerprint equals an untimed
//     fresh sgml.Run of its seed, the sweep is sealed and sgml.VerifyStore
//     passes.
//   - epic-redblue: every event fires without error, and fingerprint,
//     precision and recall equal an untimed fresh sgml.Run of the seed.
//   - Traced stepping of forks: every step succeeds, the solver rebuilds on
//     exactly the scheduled flips, and every fork ends in the same kv bus.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	sgml "repro"
)

type metricDef struct{ name, unit, better string }

// endToEnd and perLayer are the metrics the JSON line carries with --trace
// 0 and --trace 1; BENCHMARK.json at the repository root lists the same.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_ms_p50", "ms", "lower"},
	{"latency_ms_tail", "ms", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

var perLayer = []metricDef{
	{"core.compile_ms", "ms", "lower"},
	{"core.start_ms", "ms", "lower"},
	{"core.stop_ms", "ms", "lower"},
	{"powersim.step_ms", "ms", "lower"},
	{"powerflow.solve_ms", "ms", "lower"},
	{"powersim.publish_ms", "ms", "lower"},
	{"ied.step_ms", "ms", "lower"},
	{"powersim.allocs_per_step", "count", "lower"},
	{"ied.allocs_per_step", "count", "lower"},
	{"kvbus.keys", "count", "lower"},
	{"powerflow.rebuild_step_ms", "ms", "lower"},
	{"powerflow.cache_hit_ratio", "ratio", "higher"},
	{"powersim.solve_failures", "count", "lower"},
	{"core.engine_gap_ms", "ms", "lower"},
	{"trace.overhead_ms", "ms", "lower"},
	{"trace.layer_coverage", "ratio", "higher"},
}

// config is one run's settings. The sizes are fixed by main; the tests
// shrink them.
type config struct {
	seed      int64
	seconds   time.Duration
	trace     bool
	workers   int
	dir       string // campaign stores and the trace file
	setups    int
	passSteps int // xl-interactive schedule length
}

type workload struct {
	run    func(*config) (*outcome, error)
	setups int
}

var workloads = map[string]workload{
	"xl-interactive": {runXL, 5},
	"campaign-5x20":  {runCampaign, 51},
	"epic-redblue":   {runEpic, 51},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rangebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "xl-interactive, campaign-5x20 or epic-redblue")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "how long the workload's loop runs")
	trace := fs.Int("trace", 0, "1: traced run, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "usage: rangebench --workload <%s> --seed <n> --seconds <s> --trace <0|1>\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	cfg := &config{
		seed:      *seed,
		seconds:   time.Duration(*seconds) * time.Second,
		trace:     *trace == 1,
		workers:   runtime.NumCPU(),
		dir:       filepath.Join(".bench_build", "rangebench"),
		setups:    w.setups,
		passSteps: 400,
	}
	res, err := execute(*name, cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "rangebench %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "rangebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// execute runs one workload, prints its report and returns the JSON result.
func execute(name string, cfg *config, stdout io.Writer) (*result, error) {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "rangebench %s seed=%d seconds=%d trace=%t nproc=%d GOMAXPROCS=%d %s\n",
		name, cfg.seed, int(cfg.seconds/time.Second), cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	out, err := workloads[name].run(cfg)
	if err != nil {
		return nil, err
	}
	if out.peakErr != nil {
		return nil, out.peakErr
	}
	res := &result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("no operation attempted")
	}
	for _, n := range out.notes {
		fmt.Fprintf(stdout, "  %s\n", n)
	}
	for _, f := range out.failures {
		fmt.Fprintf(stdout, "  FAILED %s\n", f)
	}
	fmt.Fprintf(stdout, "  %-28s %d/%d = %.6g\n", "failed_ratio", out.failed, out.attempted, float64(out.failed)/float64(out.attempted))

	if !cfg.trace {
		sorted := sortedCopy(msAll(out.lat))
		p, tv, beyond := tail(sorted)
		vals := map[string]float64{
			"setup_s":          median(msAll(out.setup)) / 1e3,
			"latency_ms_p50":   percentile(sorted, 50),
			"latency_ms_tail":  tv,
			"throughput_per_s": float64(out.work) / out.workTime.Seconds(),
			"peak_rss_mb":      out.peakMB,
		}
		detail := map[string]string{
			"setup_s":          fmt.Sprintf("median of %d set-ups", len(out.setup)),
			"latency_ms_p50":   fmt.Sprintf("%s p50, n=%d", out.latName, len(sorted)),
			"latency_ms_tail":  fmt.Sprintf("%s p%s, n=%d, %d beyond", out.latName, strconv.FormatFloat(p, 'f', -1, 64), len(sorted), beyond),
			"throughput_per_s": fmt.Sprintf("%s per second", out.workName),
			"peak_rss_mb":      "VmHWM at the end of the loop",
		}
		for _, m := range endToEnd {
			if err := finite(m.name, vals[m.name]); err != nil {
				return nil, err
			}
			res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
			fmt.Fprintf(stdout, "  %-28s %12.6g %-6s %s\n", m.name, vals[m.name], m.unit, detail[m.name])
		}
		return res, nil
	}

	out.commonLayers()
	path := filepath.Join(cfg.dir, fmt.Sprintf("trace-%s-%d.jsonl", name, cfg.seed))
	if err := out.tracer.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "  spans and counts: %s (%d spans)\n", path, len(out.tracer.spans))
	for _, m := range perLayer {
		v, ok := out.layers[m.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s not measured", m.name)
		}
		if err := finite(m.name, v); err != nil {
			return nil, err
		}
		res.Metrics[m.name] = metricValue{v, m.unit}
	}
	names := make([]string, 0, len(out.layers))
	for n := range out.layers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "  %-28s %12.6g %s\n", n, out.layers[n], unitOf(n))
	}
	return res, nil
}

// finite rejects a metric that has no samples behind it.
func finite(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("metric %s has no value (%g)", name, v)
	}
	return nil
}

// unitOf names the unit of a per-layer metric from its suffix.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_coverage"):
		return "ratio"
	default:
		return "count"
	}
}

// peakRSSMB reads the process's peak resident set size from /proc.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// outcome is what a workload measured.
type outcome struct {
	latName   string // what latency_ms_* times
	workName  string // what throughput_per_s counts
	setup     []time.Duration
	lat       []time.Duration // untraced latency samples
	work      int             // units of work the untraced operations completed
	workTime  time.Duration   // their summed wall time
	attempted int
	failed    int
	failures  []string // the first few failure messages
	notes     []string
	peakMB    float64 // peak RSS at the end of the workload's loop
	peakErr   error

	// Traced runs only.
	tracer                *tracer
	layers                map[string]float64
	compile, start, stops []time.Duration
}

func newOutcome(latName, workName string) *outcome {
	return &outcome{latName: latName, workName: workName, layers: map[string]float64{}}
}

func (o *outcome) newTrace() *tracer {
	o.tracer = newTracer()
	return o.tracer
}

// done records an untraced operation that took wall and completed units of
// work.
func (o *outcome) done(wall time.Duration, units int) {
	o.lat = append(o.lat, wall)
	o.work += units
	o.workTime += wall
}

// op records an untraced single-unit operation and its check.
func (o *outcome) op(wall time.Duration, err error, format string, args ...any) {
	o.done(wall, 1)
	o.attempt(err, format, args...)
}

// attempt records an operation whose check passed when err is nil.
func (o *outcome) attempt(err error, format string, args ...any) {
	o.attempted++
	if err != nil {
		o.fail(fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), err))
	}
}

// fail records a failed operation or check.
func (o *outcome) fail(err error) {
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, err.Error())
	}
}

// markPeak reads the peak RSS once the workload's loop is done, before the
// repeated set-ups and reference runs that only measure setup_s and check
// results.
func (o *outcome) markPeak() { o.peakMB, o.peakErr = peakRSSMB() }

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) timeStop(r *sgml.CyberRange) {
	a := time.Now()
	r.Stop()
	o.stops = append(o.stops, time.Since(a))
}

// commonLayers fills the provisioning metrics every workload measures.
func (o *outcome) commonLayers() {
	o.layers["core.compile_ms"] = median(msAll(o.compile))
	o.layers["core.start_ms"] = median(msAll(o.start))
	o.layers["core.stop_ms"] = median(msAll(o.stops))
}

// stepLayers derives the step-path metrics from a traced stepping loop.
// untracedStepMs are StepAll wall times of the same schedule.
func (o *outcome) stepLayers(t *tracer, acc *layerAcc, untracedStepMs []float64, busKeys int) {
	self := selfTimes(t.spans)
	var publish, layerSum []float64
	var stepTotal, layerTotal int64
	for i, s := range t.spans {
		switch s.Name {
		case "powersim.step":
			publish = append(publish, float64(self[i])/1e6)
		case "core.step":
			inLayers := s.dur() - self[i]
			layerSum = append(layerSum, float64(inLayers)/1e6)
			stepTotal += s.dur()
			layerTotal += inLayers
		}
	}
	l := o.layers
	l["powersim.step_ms"] = median(t.durations("powersim.step"))
	l["powerflow.solve_ms"] = median(t.durations("powerflow.solve"))
	l["powersim.publish_ms"] = median(publish)
	l["ied.step_ms"] = median(t.durations("ied.step"))
	if d := t.durations("plc.scan"); len(d) > 0 {
		l["plc.scan_ms"] = median(d)
	}
	if d := t.durations("scada.poll"); len(d) > 0 {
		l["scada.poll_ms"] = median(d)
	}
	l["powersim.allocs_per_step"] = mean(acc.simAllocs)
	l["ied.allocs_per_step"] = mean(acc.iedAllocs)
	l["kvbus.keys"] = float64(busKeys)
	l["powerflow.rebuild_step_ms"] = median(acc.rebuildMs)
	l["powerflow.cache_hit_ratio"] = float64(acc.hits) / float64(acc.hits+acc.misses)
	l["powersim.solve_failures"] = float64(acc.fails)
	l["core.engine_gap_ms"] = median(untracedStepMs) - median(layerSum)
	l["trace.layer_coverage"] = float64(layerTotal) / float64(stepTotal)
	t.count("powerflow.cache_hits", float64(acc.hits))
	t.count("powerflow.cache_misses", float64(acc.misses))
	t.count("powersim.solve_failures", float64(acc.fails))
	t.count("kvbus.keys", float64(busKeys))
}
