// Command benchmark is Rattrap's one benchmark: six named workloads, eight
// end-to-end metrics, and (with -trace 1) per-layer metrics measured from
// outside the program by timing calls into each layer's exported functions.
// See README.md for how to run it and how to read what it prints.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultOut is where the suite's results and a traced run's trace.json go
// when -out is not given, relative to the repository root.
const defaultOut = "benchmark/out"

// options are one run's settings. The driver passes -workload, -seed,
// -seconds and -trace; the rest are for people.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	out      string
}

func (o options) calibIters() int {
	if o.smoke {
		return calibIters / 64
	}
	return calibIters
}

// reading is one metric of one run: the median of its per-window (tcp-*),
// per-repeat (sim-*) or per-segment (setup_s) values, with their range.
type reading struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Values []float64 `json:"values,omitempty"`
}

// runResult is one workload run, as written to <out>/<workload>.json and as
// aggregated into result.json by the suite.
type runResult struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Smoke    bool    `json:"smoke,omitempty"`

	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Problems  []string `json:"problems,omitempty"`

	Metrics map[string]reading `json:"metrics"`
	// Slowdown is the yardstick's slowdown window by window (or repeat by
	// repeat): what each window's timings were divided by, so that a value
	// times its window's slowdown is what the clock read. Slowdown50, on
	// tcp-* runs, is the one wall_p50_us was divided by.
	Slowdown   *reading `json:"yardstick_slowdown,omitempty"`
	Slowdown50 *reading `json:"yardstick_slowdown_p50,omitempty"`
	// P99Us is the latency tail of an untraced tcp-* run, printed beside its
	// metrics without being one: a traced run reports it as the per-layer
	// client.wall_p99_us.
	P99Us *reading `json:"wall_p99_us,omitempty"`
	// Samples is the number of latency samples behind each window's
	// percentiles (tcp-*) or of completed arrivals per repeat (sim-*).
	Samples []int `json:"samples,omitempty"`

	// Virtual-time results of a sim-* run: exact per seed, kept apart from
	// the wall-clock metrics above.
	ReportDigest string  `json:"report_digest,omitempty"`
	VirtP50Ms    float64 `json:"virt_p50_ms,omitempty"`
	VirtP99Ms    float64 `json:"virt_p99_ms,omitempty"`

	CalibBeforeNs int64 `json:"calib_before_ns"`
	CalibAfterNs  int64 `json:"calib_after_ns"`
	Noisy         bool  `json:"noisy"`
	Env           env   `json:"env"`
}

func newRunResult(name string, opt options) *runResult {
	return &runResult{
		Workload: name, Seed: opt.seed, Seconds: opt.seconds, Trace: opt.trace, Smoke: opt.smoke,
		Correct: true, Metrics: map[string]reading{}, Env: readEnv(),
	}
}

func unitOf(name string) string {
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	panic("benchmark: metric " + name + " is not in spec.go")
}

func newReading(unit string, s series) *reading {
	return &reading{Value: s.median(), Unit: unit, Min: s.min(), Max: s.max(), Values: s}
}

func (r *runResult) set(name string, s series) { r.Metrics[name] = *newReading(unitOf(name), s) }

func (r *runResult) setValue(name string, v float64) { r.set(name, series{v}) }

func (r *runResult) fail(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// fileName is where a run's result goes under -out.
func (r *runResult) fileName() string {
	if r.Trace {
		return r.Workload + ".trace.json"
	}
	return r.Workload + ".json"
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// runWorkload runs one workload in this process.
func runWorkload(opt options) (*runResult, error) {
	runtime.GOMAXPROCS(procs)
	_, tcp := tcpWorkloads[opt.workload]
	var res *runResult
	var err error
	switch {
	case opt.trace:
		res, err = runTraced(opt)
	case tcp:
		res, err = runTCP(opt.workload, opt)
	default:
		res, err = runSim(opt.workload, opt)
	}
	if err != nil {
		return nil, err
	}
	res.Noisy = noisy(time.Duration(res.CalibBeforeNs), time.Duration(res.CalibAfterNs))
	res.Env.finish()
	return res, nil
}

// print writes every metric by name with its unit, then the one-line JSON
// object the driver reads from the last line of standard output.
func (r *runResult) print() error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s seed %d seconds %g trace %v\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	line := func(n string, m reading) {
		fmt.Printf("  %-40s %16.4f %-6s", n, m.Value, m.Unit)
		if len(m.Values) > 1 {
			fmt.Printf(" (min %.4f max %.4f of %d)", m.Min, m.Max, len(m.Values))
		}
		fmt.Println()
	}
	for _, n := range names {
		line(n, r.Metrics[n])
	}
	if r.P99Us != nil {
		line("(wall_p99_us)", *r.P99Us)
	}
	if r.Slowdown != nil {
		line("(yardstick slowdown)", *r.Slowdown)
	}
	if len(r.Samples) > 0 {
		fmt.Printf("  samples per window: %v\n", r.Samples)
	}
	if r.ReportDigest != "" {
		fmt.Printf("  virtual p50 %.3f ms, p99 %.3f ms, report %s\n", r.VirtP50Ms, r.VirtP99Ms, r.ReportDigest[:16])
	}
	fmt.Printf("  calibration %d ns before, %d ns after, noisy=%v\n", r.CalibBeforeNs, r.CalibAfterNs, r.Noisy)
	for _, p := range r.Problems {
		fmt.Printf("  INCORRECT: %s\n", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for n, m := range r.Metrics {
		last.Metrics[n] = value{m.Value, m.Unit}
	}
	buf, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Println(string(buf))
	return nil
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func main() {
	var opt options
	var trace int
	var compare bool
	flag.StringVar(&opt.workload, "workload", "", "run one workload in this process: "+strings.Join(workloadNames(), ", ")+" (default: all six, one child process each)")
	flag.Int64Var(&opt.seed, "seed", defaultSeed, "seed of every generated input")
	flag.Float64Var(&opt.seconds, "seconds", runSeconds, "measuring time of one run")
	flag.IntVar(&trace, "trace", 0, "1: the traced run, which reports the per-layer metrics and writes trace.json")
	flag.BoolVar(&opt.smoke, "smoke", false, "tiny windows and fleets: checks the plumbing, the numbers mean nothing")
	flag.StringVar(&opt.out, "out", "", "directory for result files (default: none for -workload, benchmark/out for the suite)")
	flag.BoolVar(&compare, "compare", false, "compare two suite results: -compare A.json B.json")
	flag.Parse()
	opt.trace = trace != 0

	if err := run(opt, compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

func run(opt options, compare bool, args []string) error {
	switch {
	case compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(args[0], args[1])
	case opt.workload == "":
		return runSuite(opt)
	case !findWorkload(opt.workload):
		return fmt.Errorf("unknown workload %q (have %s)", opt.workload, strings.Join(workloadNames(), ", "))
	}
	res, err := runWorkload(opt)
	if err != nil {
		return err
	}
	if opt.out != "" {
		if err := writeJSON(filepath.Join(opt.out, res.fileName()), res); err != nil {
			return err
		}
	}
	if err := res.print(); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: outputs were not correct", res.Workload)
	}
	return nil
}
