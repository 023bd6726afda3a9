// Command hailperf is the HAIL benchmark: it uploads seeded UserVisits
// data through the HAIL client, serves it from haild on a loopback
// listener, drives one of three workloads (upload, scan, serve) for a
// fixed time, checks every output against a serial reference, and prints
// the workload's metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With -trace 0 the
// metrics are the end-to-end ones; with -trace 1 a separate traced run
// reports per-layer metrics. See README.md for what each metric means.
//
// Run it through run.sh from the repository root:
//
//	bash hailperf/run.sh --workload scan --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// config is one run's settings: the command line plus the fixed load
// shape. README.md records the fixed values.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	WorkDir  string

	Rows      int // UserVisits rows generated from the seed
	BlockSize int // input text bytes per HAIL block
	Nodes     int // datanodes per cluster
	SetupReps int // set-ups per run; setup_s is their median

	Clients     int // client goroutines and connections (nproc)
	Parallelism int // haild's per-query task parallelism
	MaxInFlight int // haild's admission limit

	ScanLimit  int     // rows returned per scan query
	ServeRate  float64 // serve's fixed arrival rate, requests/s
	ServeShape int     // light hot query shapes in serve's working set
	ServeHeavy int     // large-report shapes in serve's working set
	Tenants    int     // tenants the serve shapes belong to
	ProbeCap   int     // traced queries re-run in-process, at most
}

func defaultConfig() config {
	nproc := runtime.NumCPU()
	return config{
		Rows:        60000,
		BlockSize:   256 << 10,
		Nodes:       10,
		SetupReps:   3,
		Clients:     nproc,
		Parallelism: 1,
		MaxInFlight: nproc,
		ScanLimit:   20,
		ServeRate:   100,
		ServeShape:  32,
		ServeHeavy:  4,
		Tenants:     4,
		ProbeCap:    150,
	}
}

// metric is one reported value with its unit.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// outcome is what a workload run reports.
type outcome struct {
	attempted int
	failed    int
	errs      []string // the first few failures, for the log
	invalid   string   // non-empty when the measurement itself is unusable
	// unreconciled is non-empty when the traced run's layer budget missed
	// its tolerance; the result counts it as a failure.
	unreconciled string
	metrics      []metric
	notes        []string // human-readable lines printed before the result
}

func (o *outcome) add(name string, v float64, unit string) {
	o.metrics = append(o.metrics, metric{name, v, unit})
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.errs) < 5 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	cfg := defaultConfig()
	flag.StringVar(&cfg.Workload, "workload", "", "workload: upload, scan or serve")
	flag.Int64Var(&cfg.Seed, "seed", 1, "seed for the data and the request stream")
	flag.Float64Var(&cfg.Seconds, "seconds", 20, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.StringVar(&cfg.WorkDir, "workdir", ".bench_build", "directory for the saved HAIL filesystems")
	flag.Parse()
	cfg.Trace = *trace == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "hailperf:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(cfg.WorkDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg.WorkDir = dir
	o, err := execute(cfg)
	if err != nil {
		return err
	}
	return printResult(cfg, o)
}

// execute runs cfg's workload with its files under cfg.WorkDir.
func execute(cfg config) (*outcome, error) {
	if cfg.Seconds <= 0 {
		return nil, fmt.Errorf("need -seconds > 0")
	}
	switch cfg.Workload {
	case "upload":
		return runUpload(cfg)
	case "scan":
		return runScan(cfg)
	case "serve":
		return runServe(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want upload, scan or serve)", cfg.Workload)
}

func printResult(cfg config, o *outcome) error {
	mode := "end-to-end"
	if cfg.Trace {
		mode = "traced"
	}
	fmt.Printf("hailperf %s workload=%s seed=%d seconds=%g rows=%d nproc=%d GOMAXPROCS=%d clients=%d parallelism=%d max_in_flight=%d\n",
		mode, cfg.Workload, cfg.Seed, cfg.Seconds, cfg.Rows, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		cfg.Clients, cfg.Parallelism, cfg.MaxInFlight)
	for _, n := range o.notes {
		fmt.Println(n)
	}
	for _, e := range o.errs {
		fmt.Println("FAIL:", e)
	}
	if o.invalid != "" {
		fmt.Println("INVALID:", o.invalid)
	}
	if o.unreconciled != "" {
		fmt.Println("FAIL:", o.unreconciled)
		o.failed++
	}
	res := jsonResult{
		Correct:   o.failed == 0 && o.invalid == "",
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]jsonMetric, len(o.metrics)),
	}
	wide := 0
	for _, m := range o.metrics {
		wide = max(wide, len(m.Name))
	}
	for _, m := range o.metrics {
		fmt.Printf("  %-*s %14.4f %s\n", wide, m.Name, m.Value, m.Unit)
		res.Metrics[m.Name] = jsonMetric{m.Value, m.Unit}
	}
	if res.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runDir returns a fresh directory under the run's work directory.
func runDir(cfg config, prefix string) (string, error) {
	return os.MkdirTemp(cfg.WorkDir, prefix+"-")
}
