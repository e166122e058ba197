// Command perfbench is jinjing's end-to-end benchmark: three seeded
// workloads driven through the public entry points (lai.Resolve,
// core.Engine methods, and jinjingd over HTTP), every output validated
// by an independent reference semantics (replay.go), every metric
// printed by name with its unit.
//
// Usage (normally through run.py, which builds this and jinjingd):
//
//	perfbench -workload oneshot-check|synthesize|daemon-edits -seed N
//	          -seconds S -trace 0|1 [-pin] [-jinjingd PATH] [-workdir DIR]
//
// -trace 0 measures the end-to-end metrics; -trace 1 is a separate run
// that records in-memory spans around each layer call, made from this
// package only, and reports per-layer self times and counts. -pin
// computes the workload's expected answers for the seed and writes
// them to expected/ (or, when the file exists, checks that they repeat).
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The exit code is 0
// only when every operation validated.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	jinjingd string
	workdir  string
}

// report is what a workload hands back: the operation counts, the
// end-to-end metrics (generic names shared by all workloads), the
// workload's own named metrics, the per-layer metrics of a traced run,
// the answers to pin, and the spans to write out.
type report struct {
	attempted, failed int
	// problems describes each failed validation (printed to stderr).
	problems []string
	endToEnd map[string]metric
	named    map[string]metric
	layers   map[string]metric
	params   map[string]any
	answers  map[string]string
	spans    []span
	// ops holds one record per operation (its input and timings) for
	// the result file.
	ops []map[string]any
	// coverage is a one-line account of how the traced layers add up
	// to the operation time.
	coverage string
}

func newReport() *report {
	return &report{
		endToEnd: map[string]metric{},
		named:    map[string]metric{},
		layers:   map[string]metric{},
		params:   map[string]any{},
		answers:  map[string]string{},
	}
}

// fail records one failed validation.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*report, error){
	"oneshot-check": runOneshot,
	"synthesize":    runSynthesize,
	"daemon-edits":  runDaemon,
}

// workloadPins maps each workload name to the function computing its
// expected answers for -pin.
var workloadPins = map[string]func(config) (map[string]string, error){
	"oneshot-check": pinOneshot,
	"synthesize":    pinSynthesize,
	"daemon-edits":  pinDaemon,
}

func main() {
	var cfg config
	var seconds, trace int
	var pin bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: oneshot-check, synthesize, or daemon-edits")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&seconds, "seconds", 30, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	flag.BoolVar(&pin, "pin", false, "compute the expected answers for the seed and pin them under expected/")
	flag.StringVar(&cfg.jinjingd, "jinjingd", "", "path of the jinjingd binary (daemon-edits)")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/run", "scratch directory for daemon state and result files")
	flag.Parse()
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1

	run, ok := workloads[cfg.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", cfg.workload, seconds, trace)
		os.Exit(2)
	}
	if err := checkSourceTree(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	if pin {
		if err := pinAnswers(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: pin: %v\n", err)
			os.Exit(1)
		}
		return
	}

	env := stamp(cfg)
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	correct := rep.failed == 0
	if ok, msg := compareExpected(cfg, rep.answers); !ok {
		correct = false
		fmt.Fprintf(os.Stderr, "perfbench: expected answers: %s\n", msg)
	} else if msg != "" {
		fmt.Fprintf(os.Stderr, "perfbench: %s\n", msg)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "perfbench: failed: %s\n", p)
	}

	metrics := rep.endToEnd
	if cfg.trace {
		metrics = rep.layers
	}
	if err := writeResultFile(cfg, env, rep, correct); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	envLine, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envLine)
	fmt.Printf("params %s\n", mustJSON(rep.params))
	printMetrics("named", rep.named)
	if cfg.trace {
		fmt.Printf("coverage %s\n", rep.coverage)
	}
	printMetrics("metric", metrics)
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, rep.attempted, rep.failed, metrics}
	fmt.Println(mustJSON(out))
	if !correct {
		os.Exit(1)
	}
}

// checkSourceTree refuses to run outside a full checkout: the workloads
// drive the repository's own programs, which must be present.
func checkSourceTree() error {
	for _, f := range []string{"go.mod", "internal/core/engine.go", "cmd/jinjingd/main.go"} {
		if _, err := os.Stat(f); err != nil {
			return fmt.Errorf("run from the repository root: %v", err)
		}
	}
	return nil
}

func printMetrics(label string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s %s = %.6g %s\n", label, n, m[n].Value, m[n].Unit)
	}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// writeResultFile stores the whole run — environment stamp, parameters,
// every metric, and the spans of a traced run — under the work
// directory, one file per workload, seed, and mode.
func writeResultFile(cfg config, env map[string]any, rep *report, correct bool) error {
	dir := filepath.Join(cfg.workdir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := map[string]any{
		"env":        env,
		"params":     rep.params,
		"correct":    correct,
		"attempted":  rep.attempted,
		"failed":     rep.failed,
		"end_to_end": rep.endToEnd,
		"named":      rep.named,
		"answers":    rep.answers,
		"ops":        rep.ops,
	}
	if cfg.trace {
		rec["per_layer"] = rep.layers
		rec["coverage"] = rep.coverage
		rec["spans"] = spansJSON(rep.spans)
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, btoi(cfg.trace))
	return os.WriteFile(filepath.Join(dir, name), []byte(mustJSON(rec)+"\n"), 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
