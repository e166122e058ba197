package core_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"jinjing/internal/core"
	"jinjing/internal/obs"
)

// obsHarness wires a full observer (JSONL trace + metrics + unthrottled
// progress) into the given options and returns the pieces for assertions.
func obsHarness(opts *core.Options) (trace, progress *bytes.Buffer, m *obs.Metrics) {
	trace, progress = &bytes.Buffer{}, &bytes.Buffer{}
	m = obs.NewMetrics()
	p := obs.NewProgress(progress)
	p.SetMinInterval(0)
	opts.Obs = obs.NewObserver(obs.NewTracer(obs.NewJSONLSink(trace)), m, p)
	return trace, progress, m
}

// decodeSpans parses a JSONL trace into records keyed by span name.
func decodeSpans(t *testing.T, trace *bytes.Buffer) map[string][]obs.SpanRecord {
	t.Helper()
	out := map[string][]obs.SpanRecord{}
	for _, line := range strings.Split(strings.TrimSpace(trace.String()), "\n") {
		var r obs.SpanRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if r.Type == "span" {
			out[r.Name] = append(out[r.Name], r)
		}
	}
	return out
}

// TestCheckObservability runs the sequential check under a full observer
// and cross-checks spans, metrics, progress, and the result's solver
// stats against each other.
func TestCheckObservability(t *testing.T) {
	opts := core.DefaultOptions()
	opts.FindAllViolations = true
	// Force the solver backend: this test cross-checks solver-stat
	// plumbing, which the pset backend (auto's pick here) never feeds.
	opts.Backend = core.BackendSAT
	trace, progress, m := obsHarness(&opts)
	e := newRunningEngine(t, opts)
	res := e.Check()

	if res.Consistent {
		t.Fatal("running example must be inconsistent")
	}
	if res.Conflicts != res.SolverStats.Conflicts {
		t.Fatalf("Conflicts %d != SolverStats.Conflicts %d", res.Conflicts, res.SolverStats.Conflicts)
	}
	if res.SolverStats.Decisions == 0 && res.SolverStats.Propagations == 0 {
		t.Fatalf("solver stats empty: %+v", res.SolverStats)
	}

	spans := decodeSpans(t, trace)
	root := spans["check"]
	if len(root) != 1 || root[0].Attrs["mode"] != "sequential" || root[0].Attrs["consistent"] != false {
		t.Fatalf("check root span wrong: %+v", root)
	}
	for _, phase := range []string{"preprocess", "fec", "solve"} {
		ps := spans[phase]
		if len(ps) != 1 {
			t.Fatalf("phase %q: want 1 span, got %d", phase, len(ps))
		}
		if ps[0].Parent != root[0].ID {
			t.Fatalf("phase %q not parented to check: %+v", phase, ps[0])
		}
		if res.Timings[phase] <= 0 {
			t.Fatalf("Timings[%q] not populated alongside the span", phase)
		}
	}

	snap := m.Snapshot()
	if got := snap.Counters["check.fecs"]; got != int64(res.FECs) {
		t.Fatalf("check.fecs counter %d != result FECs %d", got, res.FECs)
	}
	if got := snap.Counters["sat.conflicts"]; got != res.SolverStats.Conflicts {
		t.Fatalf("sat.conflicts counter %d != aggregated %d", got, res.SolverStats.Conflicts)
	}
	if got := snap.Histograms["fec.solve.ns{backend=sat}"].Count + snap.Histograms["fec.solve.ns{backend=pset}"].Count; got != int64(res.SolvedFECs) {
		t.Fatalf("solve histogram count %d != solved FECs %d", got, res.SolvedFECs)
	}
	if snap.Gauges["smt.nodes"] <= 0 {
		t.Fatal("smt.nodes gauge not set")
	}
	if !strings.Contains(progress.String(), "check: FECs") {
		t.Fatalf("no progress lines: %q", progress.String())
	}
}

// TestCheckParallelObservability checks that every worker's solver stats
// land in both the result aggregate and the metrics registry.
func TestCheckParallelObservability(t *testing.T) {
	opts := core.DefaultOptions()
	opts.FindAllViolations = true
	opts.Workers = 4
	// Force the solver backend: the test asserts per-worker solver-stat
	// aggregation, which the pset backend never feeds.
	opts.Backend = core.BackendSAT
	trace, _, m := obsHarness(&opts)
	e := newRunningEngine(t, opts)
	res := e.Check()

	if res.Consistent {
		t.Fatal("running example must be inconsistent")
	}
	if res.SolverStats.Decisions == 0 && res.SolverStats.Propagations == 0 {
		t.Fatalf("parallel workers' stats not aggregated: %+v", res.SolverStats)
	}
	snap := m.Snapshot()
	if snap.Counters["sat.propagations"] != res.SolverStats.Propagations {
		t.Fatalf("sat.propagations %d != aggregate %d",
			snap.Counters["sat.propagations"], res.SolverStats.Propagations)
	}
	spans := decodeSpans(t, trace)
	if len(spans["check"]) != 1 || spans["check"][0].Attrs["mode"] != "parallel" {
		t.Fatalf("parallel root span wrong: %+v", spans["check"])
	}
	if len(spans["encode"]) != 1 {
		t.Fatalf("parallel check must have an encode phase: %v", spans)
	}
	if got := snap.Histograms["fec.solve.ns{backend=sat}"].Count + snap.Histograms["fec.solve.ns{backend=pset}"].Count; got != int64(res.SolvedFECs) {
		t.Fatalf("solve histogram count %d != solved FECs %d", got, res.SolvedFECs)
	}
}

// TestFixObservability exercises the fix pipeline's spans and counters.
func TestFixObservability(t *testing.T) {
	opts := core.DefaultOptions()
	trace, _, m := obsHarness(&opts)
	e := newRunningEngine(t, opts)
	res, err := e.Fix()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("fix must verify on the running example")
	}
	if res.Conflicts != res.SolverStats.Conflicts {
		t.Fatalf("Conflicts %d != SolverStats.Conflicts %d", res.Conflicts, res.SolverStats.Conflicts)
	}
	snap := m.Snapshot()
	if snap.Counters["fix.iterations"] <= 0 {
		t.Fatal("fix.iterations not counted")
	}
	if snap.Counters["fix.neighborhoods"] != int64(len(res.Neighborhoods)) {
		t.Fatalf("fix.neighborhoods %d != %d", snap.Counters["fix.neighborhoods"], len(res.Neighborhoods))
	}
	spans := decodeSpans(t, trace)
	if len(spans["fix"]) != 1 {
		t.Fatalf("want one fix root span, got %+v", spans["fix"])
	}
	fixID := spans["fix"][0].ID
	seen := false
	for _, s := range spans["verify"] {
		if s.Parent == fixID {
			seen = true
		}
	}
	if !seen {
		t.Fatal("fix has no verify child span")
	}
}

// TestGenerateObservability exercises the generate pipeline's spans and
// counters on the §5 migration example.
func TestGenerateObservability(t *testing.T) {
	opts := core.DefaultOptions()
	trace, _, m := obsHarness(&opts)
	e, sources := migrationEngine(opts)
	res, err := e.Generate(sources)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("generate must verify on the migration example")
	}
	if res.Conflicts != res.SolverStats.Conflicts {
		t.Fatalf("Conflicts %d != SolverStats.Conflicts %d", res.Conflicts, res.SolverStats.Conflicts)
	}
	snap := m.Snapshot()
	if snap.Counters["generate.aecs"] != int64(res.AECs) {
		t.Fatalf("generate.aecs %d != %d", snap.Counters["generate.aecs"], res.AECs)
	}
	if snap.Counters["generate.rules"] != int64(res.RulesGenerated) {
		t.Fatalf("generate.rules %d != %d", snap.Counters["generate.rules"], res.RulesGenerated)
	}
	spans := decodeSpans(t, trace)
	if len(spans["generate"]) != 1 || spans["generate"][0].Attrs["verified"] != true {
		t.Fatalf("generate root span wrong: %+v", spans["generate"])
	}
	genID := spans["generate"][0].ID
	for _, phase := range []string{"derive-aec", "synthesize"} {
		found := false
		for _, s := range spans[phase] {
			if s.Parent == genID {
				found = true
			}
		}
		if !found {
			t.Fatalf("generate has no %q child span", phase)
		}
	}
}

// TestObserverOffLeavesTimings pins the backward-compatible default: no
// observer, but Timings still populated.
func TestObserverOffLeavesTimings(t *testing.T) {
	opts := core.DefaultOptions()
	e := newRunningEngine(t, opts)
	res := e.Check()
	if res.Timings["solve"] <= 0 || res.Timings["preprocess"] <= 0 {
		t.Fatalf("Timings must be populated without an observer: %v", res.Timings)
	}
	if res.SolverStats.Conflicts != res.Conflicts {
		t.Fatal("SolverStats must be aggregated even without an observer")
	}
}
