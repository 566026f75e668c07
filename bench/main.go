// Command bench is pandora's benchmark driver. One invocation runs one
// workload in its own process, checks the workload's outputs against the
// repository's goldens and exact simulated counts, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"<name>": {"value": V, "unit": "U"}, ...}}
//
// With -trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
// timed with tracing off. With -trace 1 the run is the traced layer
// sweep instead: it times calls into each layer's public functions,
// keeps a span around each call in memory, writes the spans to
// .bench_build/spans/ when it ends, and reports the per-layer metrics.
// A wrong output exits 1.
//
// Run it from the repository root through the build wrapper:
//
//	bash bench/run.sh --workload contract --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workers is the fan-out of every parallel call and the number of serve
// clients. The benchmark host has two CPUs; speedup beyond two is not
// measured.
const workers = 2

// workloads maps each -workload name to its timed run.
var workloads = map[string]func(*env) (*result, error){
	"contract": runContract,
	"cycles":   runCycles,
	"suite":    runSuite,
	"serve":    runServe,
}

// env is one invocation's configuration.
type env struct {
	root    string        // repository root: CONTRACT_table.json is read from here
	scratch string        // per-run temporary directory, removed on exit
	seed    int64         // draws the generated inputs (the suite's come from cliSeed)
	seconds time.Duration // length of the timed phase
	size    size
}

// more reports whether the timed phase that began at start runs another
// pass after passes of them: the first always runs, a later one only if
// it fits in the phase at the mean pass time so far.
func (e *env) more(start time.Time, passes int) bool {
	if passes == 0 {
		return true
	}
	el := time.Since(start)
	return el+el/time.Duration(passes) <= e.seconds
}

// size scales the workloads. fullSize is the benchmark; the smoke test
// runs the same code at a tiny size.
type size struct {
	kernels, variants []string // contract selection (nil = the whole library)
	programs          int      // generated programs in the cycles program set
	checkPrograms     int      // diffcheck corpus per suite pass (0 = the CLI default, 512)
	faultTrials       int      // campaign trials per site per suite pass (0 = the CLI default, 8)
	serveMasks        int      // machine masks per kernel in the serve cold set
	setupReps         int      // set-ups timed per run; setup_s is their median
	pinnedCycles      map[int64]int64

	layerTime   time.Duration // timed span of each per-layer rate measurement
	cellMasks   int           // masks in the contract cell sample (× kernels × variants)
	ablateEvery int           // every n-th sample cell also runs the taint/invariant ablations
	sweepCheck  int           // diffcheck corpus of the sweep
	sweepMasks  int           // serve cold-set masks per kernel in the sweep
}

var fullSize = size{
	programs:   64,
	serveMasks: 200,
	setupReps:  9,
	// Simulated cycles of one cycles block at the default and held-out
	// seeds.
	pinnedCycles: map[int64]int64{1: 174072, 2: 181436},

	layerTime:   250 * time.Millisecond,
	cellMasks:   44,
	ablateEvery: 10,
	sweepCheck:  64,
	sweepMasks:  20,
}

func main() { os.Exit(run(os.Args[1:], ".", fullSize, os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, runs one workload (or the
// traced sweep) rooted at root, prints the result, and returns the exit
// code.
func run(args []string, root string, sz size, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: contract, cycles, suite or serve")
	seed := fs.Int64("seed", 1, "input seed (1 is the default seed, 2 the held-out seed)")
	seconds := fs.Int("seconds", 20, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "0 times the workload untraced; 1 runs the traced layer sweep")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	timed, ok := workloads[*name]
	if !ok || fs.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds < 0 {
		fmt.Fprintf(stderr, "usage: bench -workload contract|cycles|suite|serve [-seed n] [-seconds s] [-trace 0|1]\n")
		return 2
	}
	if _, err := os.Stat(filepath.Join(root, "CONTRACT_table.json")); err != nil {
		fmt.Fprintf(stderr, "bench: run from the repository root: %v\n", err)
		return 1
	}
	tmp := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	scratch, err := os.MkdirTemp(tmp, *name+"-")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	e := &env{root: root, scratch: scratch, seed: *seed, seconds: time.Duration(*seconds) * time.Second, size: sz}
	refMS := hostRefMillis()
	fmt.Fprintf(stdout, "# workload=%s seed=%d trace=%d go=%s num_cpu=%d gomaxprocs=%d commit=%s host.ref_ms=%.3f\n",
		*name, *seed, *trace, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), commit(), refMS)
	fmt.Fprintf(stdout, "# %d workers; parallel speedup above %d CPUs is not measured\n", workers, workers)

	var res *result
	if *trace == 1 {
		res, err = sweep(e, *name, refMS)
	} else {
		res, err = timed(e)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *name, err)
		return 1
	}
	if *trace == 0 {
		res.add("peak_rss_mb", "MB", peakRSSMB())
	}
	return res.print(stdout, stderr)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports: operations attempted and failed, the
// output-check problems, and the metrics in print order.
type result struct {
	attempted, failed int
	problems          []string
	names             []string
	metrics           map[string]metric
	notes             []string
}

func (r *result) add(name, unit string, v float64) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.names = append(r.names, name)
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// op counts one attempted operation; a non-nil err fails it.
func (r *result) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.problems = append(r.problems, err.Error())
	}
}

// timings adds the end-to-end metrics every timed workload reports:
// the median set-up, work units completed per second of busy time, and
// the median latency of one operation. The 99th percentile is printed
// but not reported: its run-to-run spread exceeded any allowed bound.
func (r *result) timings(setups []time.Duration, work float64, busy time.Duration, lats []time.Duration) {
	r.add("setup_s", "s", median(seconds(setups)))
	r.add("throughput_per_s", "1/s", work/busy.Seconds())
	ms := millis(lats)
	r.add("latency_p50_ms", "ms", quantile(ms, 0.50))
	r.note("set-ups %.3f ms; %.0f work units in %.3f s; %d latency samples, p99 %.3f ms",
		millis(setups), work, busy.Seconds(), len(lats), quantile(ms, 0.99))
}

func (r *result) print(stdout, stderr io.Writer) int {
	for _, n := range r.notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Fprintf(stdout, "%-32s %16s %s\n", n, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	for _, p := range r.problems {
		fmt.Fprintf(stderr, "bench: wrong output: %s\n", p)
	}
	correct := r.failed == 0 && len(r.problems) == 0 && r.attempted > 0
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, r.attempted, r.failed, r.metrics})
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !correct {
		return 1
	}
	return 0
}

// setupTimes runs fn n times and returns each duration; the state the
// last call builds is what the timed phase uses.
func setupTimes(n int, fn func() error) ([]time.Duration, error) {
	out := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0))
	}
	return out, nil
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the nearest-rank q-quantile (0 for no samples); the
// median of an even count is the mean of the middle pair.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q == 0.5 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	// Not Linux: the runtime's total from the OS is the closest stand-in.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

var refSink uint64

// hostRefMillis times a fixed xorshift loop that is not repository code,
// so a change in it between runs is drift of the host, not the program.
// It is the median of three timings.
func hostRefMillis() float64 {
	var ts []float64
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		refSink += x
		ts = append(ts, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return median(ts)
}

// commit is the git revision the binary was built from, when the build
// could stamp one.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}
