package core_test

import (
	"bytes"
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"jinjing/internal/core"
	"jinjing/internal/faultinject"
	"jinjing/internal/lai"
	"jinjing/internal/papernet"
	"jinjing/internal/sat"
)

// This file is the fault lane: every test injects failures through
// internal/faultinject and asserts the pipeline degrades exactly as
// documented — retries recover, Unknown verdicts surface instead of
// being silently cached, crashed workers hand their jobs to survivors,
// and a fully collapsed pool falls back to the sequential scan with
// byte-identical output. All tests are named TestFault* so `make
// faults` can select the lane; none may call t.Parallel (the
// faultinject registry is process-global).

// findAllOpts is the fault lane's baseline configuration: the running
// example with every violation reported, so partial results have
// something to be partial about. The lane forces the SAT backend —
// its faults wedge solver queries, and under auto-selection the
// packet-set backend would answer them without ever touching a solver.
func findAllOpts() core.Options {
	opts := core.DefaultOptions()
	opts.FindAllViolations = true
	opts.Backend = core.BackendSAT
	return opts
}

// TestFaultTimeoutRetryRecovers injects one solver timeout into the
// first check query: the retry path must re-run it and the final result
// must equal the clean run.
func TestFaultTimeoutRetryRecovers(t *testing.T) {
	defer faultinject.Reset()
	want := checkSignature(newRunningEngine(t, findAllOpts()).Check())

	opts := findAllOpts()
	_, _, m := obsHarness(&opts)
	faultinject.Schedule(faultinject.CheckSolve, faultinject.Timeout, 1)
	res := newRunningEngine(t, opts).Check()
	if got := checkSignature(res); got != want {
		t.Fatalf("timeout-retried check diverged:\n%s\nwant:\n%s", got, want)
	}
	if !res.Complete {
		t.Fatalf("retry should have recovered the verdict, Unknown=%v", res.Unknown)
	}
	if n := m.Snapshot().Counters["retry.count"]; n < 1 {
		t.Fatalf("retry.count = %d, want >= 1", n)
	}
}

// TestFaultTransientRetryRecovers is the same contract for a transient
// fault: one retryable failure, same final answer.
func TestFaultTransientRetryRecovers(t *testing.T) {
	defer faultinject.Reset()
	want := checkSignature(newRunningEngine(t, findAllOpts()).Check())

	opts := findAllOpts()
	_, _, m := obsHarness(&opts)
	faultinject.Schedule(faultinject.CheckSolve, faultinject.Transient, 1)
	res := newRunningEngine(t, opts).Check()
	if got := checkSignature(res); got != want {
		t.Fatalf("transient-retried check diverged:\n%s\nwant:\n%s", got, want)
	}
	if n := m.Snapshot().Counters["retry.count"]; n < 1 {
		t.Fatalf("retry.count = %d, want >= 1", n)
	}
}

// TestFaultTransientExhaustsRetries pins the degradation side: with no
// retry allowance, persistent transient faults leave every solver-bound
// FEC Unknown, reported ascending, and the check is honest about being
// incomplete.
func TestFaultTransientExhaustsRetries(t *testing.T) {
	defer faultinject.Reset()
	opts := findAllOpts()
	opts.MaxRetries = 0
	_, _, m := obsHarness(&opts)
	faultinject.Schedule(faultinject.CheckSolve, faultinject.Transient)
	res := newRunningEngine(t, opts).Check()
	if res.Complete {
		t.Fatal("persistent transient faults must leave the check incomplete")
	}
	if len(res.Unknown) == 0 {
		t.Fatal("no Unknown FECs reported")
	}
	for i, u := range res.Unknown {
		if u.Reason != "transient fault" {
			t.Fatalf("Unknown[%d].Reason = %q, want \"transient fault\"", i, u.Reason)
		}
		if i > 0 && res.Unknown[i-1].FEC >= u.FEC {
			t.Fatalf("Unknown not ascending: %v", res.Unknown)
		}
	}
	if n := m.Snapshot().Counters["fec.unknown"]; n != int64(len(res.Unknown)) {
		t.Fatalf("fec.unknown counter = %d, want %d", n, len(res.Unknown))
	}
}

// TestFaultUnknownNeverCachedAndRepaired is the verdict-cache soundness
// regression: a run whose queries all time out finds no violation (the
// dangerous consistent-but-incomplete case), and none of its Unknown
// FECs may be stored in the VerdictCache — the next unrestricted call
// on the same warm engine must re-solve them and land on the cold-run
// answer, violations and all.
func TestFaultUnknownNeverCachedAndRepaired(t *testing.T) {
	defer faultinject.Reset()
	opts := findAllOpts()
	opts.MaxRetries = 0
	opts.Verdicts = core.NewVerdictCache()
	_, _, m := obsHarness(&opts)

	cancel := faultinject.Schedule(faultinject.CheckSolve, faultinject.Timeout)
	warm := newRunningEngine(t, opts)
	res1 := warm.Check()
	if res1.Complete {
		t.Fatal("every query timed out, yet the check claims completeness")
	}
	if !res1.Consistent {
		t.Fatalf("no query got a verdict, yet violations appeared: %v", res1.Violations)
	}
	if len(res1.Unknown) == 0 {
		t.Fatal("no Unknown FECs reported")
	}
	for _, u := range res1.Unknown {
		if u.Reason != sat.ReasonInterrupted {
			t.Fatalf("Unknown reason = %q, want %q", u.Reason, sat.ReasonInterrupted)
		}
	}
	if n := m.Snapshot().Counters["fec.unknown"]; n != int64(len(res1.Unknown)) {
		t.Fatalf("fec.unknown counter = %d, want %d", n, len(res1.Unknown))
	}

	// Lift the faults; the warm engine must now repair itself. If any
	// Unknown had been cached as "consistent", this re-check would replay
	// it and miss the running example's violations.
	cancel()
	res2 := warm.Check()
	cold := newRunningEngine(t, findAllOpts()).Check()
	if got, want := checkSignature(res2), checkSignature(cold); got != want {
		t.Fatalf("post-fault re-check diverged from cold run:\n%s\nwant:\n%s", got, want)
	}
	if res2.Consistent {
		t.Fatal("running example is inconsistent; a cached Unknown masked it")
	}
	if res2.SolvedFECs != cold.SolvedFECs {
		t.Fatalf("warm repair SolvedFECs=%d, cold=%d", res2.SolvedFECs, cold.SolvedFECs)
	}
}

// TestFaultDeadlineCancelsPromptly wedges the solver (every query times
// out, retries effectively unbounded) and relies on Options.Deadline to
// cut the call loose: the check must return promptly with every
// undecided FEC marked cancelled.
func TestFaultDeadlineCancelsPromptly(t *testing.T) {
	defer faultinject.Reset()
	opts := findAllOpts()
	opts.MaxRetries = 1 << 30
	opts.Deadline = 50 * time.Millisecond
	faultinject.Schedule(faultinject.CheckSolve, faultinject.Timeout)

	start := time.Now()
	res := newRunningEngine(t, opts).Check()
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("deadline did not cut the wedged call loose: took %v", elapsed)
	}
	if res.Complete {
		t.Fatal("a deadline-cancelled check cannot be complete")
	}
	if len(res.Unknown) == 0 {
		t.Fatal("no Unknown FECs reported")
	}
	for _, u := range res.Unknown {
		if u.Reason != "cancelled" {
			t.Fatalf("Unknown reason = %q, want \"cancelled\"", u.Reason)
		}
	}
}

// TestFaultCancelledContextMarksUnknown runs a check under an
// already-cancelled context: it must return with every solver-bound FEC
// Unknown("cancelled") and, after the faults are lifted, the same warm
// engine must repair to the cold answer — cancelled verdicts are never
// cached either.
func TestFaultCancelledContextMarksUnknown(t *testing.T) {
	defer faultinject.Reset()
	opts := findAllOpts()
	opts.MaxRetries = 1 << 30
	opts.Verdicts = core.NewVerdictCache()
	cancelFault := faultinject.Schedule(faultinject.CheckSolve, faultinject.Timeout)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	warm := newRunningEngine(t, opts)
	res := warm.CheckContext(ctx)
	if res.Complete {
		t.Fatal("a cancelled check cannot be complete")
	}
	for _, u := range res.Unknown {
		if u.Reason != "cancelled" {
			t.Fatalf("Unknown reason = %q, want \"cancelled\"", u.Reason)
		}
	}

	cancelFault()
	res2 := warm.Check()
	cold := newRunningEngine(t, findAllOpts()).Check()
	if got, want := checkSignature(res2), checkSignature(cold); got != want {
		t.Fatalf("post-cancel re-check diverged from cold run:\n%s\nwant:\n%s", got, want)
	}
}

// TestFaultWorkerPanicRecovered crashes one parallel check worker on
// its first job, unsharded and inside a shard's fan-out: the survivors
// must drain the requeue and the result must equal the clean
// sequential run.
func TestFaultWorkerPanicRecovered(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run("shards="+strconv.Itoa(shards), func(t *testing.T) {
			defer faultinject.Reset()
			want := checkSignature(newRunningEngine(t, findAllOpts()).Check())

			opts := findAllOpts()
			opts.Shards = shards
			_, _, m := obsHarness(&opts)
			faultinject.Schedule(faultinject.CheckSolve, faultinject.Panic, 1)
			res := checkWorkers(newRunningEngine(t, opts), 2)
			if got := checkSignature(res); got != want {
				t.Fatalf("panic-recovered parallel check diverged:\n%s\nwant:\n%s", got, want)
			}
			if !res.Complete {
				t.Fatalf("worker crash must not lose verdicts: Unknown=%v", res.Unknown)
			}
			if n := m.Snapshot().Counters["worker.panic.recovered"]; n != 1 {
				t.Fatalf("worker.panic.recovered = %d, want 1", n)
			}
		})
	}
}

// TestFaultPoolCollapseSequentialFallback kills every parallel worker
// on its first job, unsharded and in every shard's fan-out, and asserts
// the sequential fallback finishes the check with a report
// byte-identical to the one-worker run. The panics are injected at the
// worker-job site, which the fallback never fires: with one job per
// worker, the first W fires are distinct workers' first jobs, and a
// crashed worker never fires again.
func TestFaultPoolCollapseSequentialFallback(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run("shards="+strconv.Itoa(shards), func(t *testing.T) {
			defer faultinject.Reset()
			ref := newRunningEngine(t, findAllOpts()).Check()
			want := checkSignature(ref)
			var wantOut bytes.Buffer
			(&core.Report{Checks: []*core.CheckResult{ref}}).Print(&wantOut)

			// On a cold engine every solver-decided FEC is one pending
			// job, so SolvedFECs is the pending-job count — the worker
			// count that gives each worker exactly one job (a shard's
			// fan-out caps its pool at the shard's job count).
			workers := ref.SolvedFECs
			if workers < 2 {
				t.Fatalf("running example needs >= 2 solver-bound FECs for a pool collapse, got %d", workers)
			}
			hits := make([]int64, workers)
			for i := range hits {
				hits[i] = int64(i + 1)
			}
			opts := findAllOpts()
			opts.Shards = shards
			_, _, m := obsHarness(&opts)
			faultinject.Schedule(faultinject.ParallelJob, faultinject.Panic, hits...)

			res := checkWorkers(newRunningEngine(t, opts), workers)
			if got := checkSignature(res); got != want {
				t.Fatalf("collapsed-pool check diverged:\n%s\nwant:\n%s", got, want)
			}
			if !res.Complete {
				t.Fatalf("fallback must decide everything: Unknown=%v", res.Unknown)
			}
			var gotOut bytes.Buffer
			(&core.Report{Checks: []*core.CheckResult{res}}).Print(&gotOut)
			if !bytes.Equal(gotOut.Bytes(), wantOut.Bytes()) {
				t.Fatalf("collapsed-pool report differs from one-worker report:\n%s\nwant:\n%s",
					gotOut.String(), wantOut.String())
			}
			if n := m.Snapshot().Counters["worker.panic.recovered"]; n != int64(workers) {
				t.Fatalf("worker.panic.recovered = %d, want %d (every worker died once)", n, workers)
			}
		})
	}
}

// TestFaultFixPoolRetriesPanickedJobs crashes one job of fix's generic
// worker pool: the job must be retried sequentially after the pool
// drains and the plan must equal the sequential clean plan.
func TestFaultFixPoolRetriesPanickedJobs(t *testing.T) {
	defer faultinject.Reset()
	sres, err := newRunningEngine(t, core.DefaultOptions()).Fix()
	if err != nil {
		t.Fatal(err)
	}

	opts := core.DefaultOptions()
	opts.Workers = 4
	_, _, m := obsHarness(&opts)
	faultinject.Schedule(faultinject.ParallelJob, faultinject.Panic, 1)
	pres, err := newRunningEngine(t, opts).Fix()
	if err != nil {
		t.Fatal(err)
	}
	if !pres.Verified {
		t.Fatalf("panic-recovered fix must still verify; actions: %v", pres.Actions)
	}
	if len(sres.Actions) != len(pres.Actions) {
		t.Fatalf("plan length differs: clean %d, faulted %d", len(sres.Actions), len(pres.Actions))
	}
	for i := range sres.Actions {
		if sres.Actions[i].String() != pres.Actions[i].String() {
			t.Fatalf("action %d differs: clean %v, faulted %v", i, sres.Actions[i], pres.Actions[i])
		}
	}
	if n := m.Snapshot().Counters["worker.panic.recovered"]; n < 1 {
		t.Fatalf("worker.panic.recovered = %d, want >= 1", n)
	}
}

// TestFaultFixRefusesUnknownVerdicts wedges every neighborhood-seeking
// solve: fix must emit no plan at all and name the blocking FECs in
// ascending order.
func TestFaultFixRefusesUnknownVerdicts(t *testing.T) {
	defer faultinject.Reset()
	opts := core.DefaultOptions()
	opts.MaxRetries = 0
	faultinject.Schedule(faultinject.FixSeek, faultinject.Timeout)
	res, err := newRunningEngine(t, opts).Fix()
	if res != nil {
		t.Fatalf("fix emitted a plan on unknown verdicts: %+v", res)
	}
	var uv *core.ErrUnknownVerdicts
	if !errors.As(err, &uv) {
		t.Fatalf("err = %v, want *ErrUnknownVerdicts", err)
	}
	if uv.Stage != "fix" {
		t.Fatalf("Stage = %q, want \"fix\"", uv.Stage)
	}
	if len(uv.FECs) == 0 {
		t.Fatal("refusal names no blocking FECs")
	}
	for i := 1; i < len(uv.FECs); i++ {
		if uv.FECs[i-1].FEC >= uv.FECs[i].FEC {
			t.Fatalf("blocking FECs not ascending: %v", uv.FECs)
		}
	}
	if !strings.Contains(err.Error(), "raise -timeout") {
		t.Fatalf("refusal does not tell the operator what to do: %v", err)
	}
}

// TestFaultGenerateRefusesUnknownVerdicts is the same contract for
// generate: blocked AEC indices, ascending, no partial plan.
func TestFaultGenerateRefusesUnknownVerdicts(t *testing.T) {
	defer faultinject.Reset()
	opts := core.DefaultOptions()
	opts.MaxRetries = 0
	e, sources := migrationEngine(opts)
	faultinject.Schedule(faultinject.GenerateAEC, faultinject.Timeout)
	res, err := e.Generate(sources)
	if res != nil {
		t.Fatalf("generate emitted a plan on unknown verdicts: %+v", res)
	}
	var uv *core.ErrUnknownVerdicts
	if !errors.As(err, &uv) {
		t.Fatalf("err = %v, want *ErrUnknownVerdicts", err)
	}
	if uv.Stage != "generate" {
		t.Fatalf("Stage = %q, want \"generate\"", uv.Stage)
	}
	if len(uv.AECs) == 0 {
		t.Fatal("refusal names no blocking AECs")
	}
	for i := 1; i < len(uv.AECs); i++ {
		if uv.AECs[i-1] >= uv.AECs[i] {
			t.Fatalf("blocking AECs not ascending: %v", uv.AECs)
		}
	}
}

// TestFaultLimitsInertOnHappyPath pins the zero-overhead contract:
// generous limits must not change a single byte of the result, and no
// budget or retry machinery may trigger.
func TestFaultLimitsInertOnHappyPath(t *testing.T) {
	want := checkSignature(newRunningEngine(t, findAllOpts()).Check())

	opts := findAllOpts()
	opts.Deadline = time.Minute
	opts.PerFECBudget = 1 << 30
	opts.MaxRetries = 3
	_, _, m := obsHarness(&opts)
	if got := checkSignature(newRunningEngine(t, opts).Check()); got != want {
		t.Fatalf("limits changed the sequential result:\n%s\nwant:\n%s", got, want)
	}
	if got := checkSignature(checkWorkers(newRunningEngine(t, opts), 4)); got != want {
		t.Fatalf("limits changed the parallel result:\n%s\nwant:\n%s", got, want)
	}
	snap := m.Snapshot()
	if snap.Counters["budget.exhausted"] != 0 || snap.Counters["retry.count"] != 0 ||
		snap.Counters["fec.unknown"] != 0 {
		t.Fatalf("limit machinery triggered on the happy path: %v", snap.Counters)
	}
}

// TestFaultRunReportsUndecided drives the whole Run pipeline with
// wedged check queries: the report must print the UNDECIDED line plus
// each undecided FEC, never the consistent line.
func TestFaultRunReportsUndecided(t *testing.T) {
	defer faultinject.Reset()
	src := `
scope A:*, B:*, C:*, D:*
entry A:1
acl A1new { deny dst 1.0.0.0/8, deny dst 2.0.0.0/8, deny dst 6.0.0.0/8, permit all }
modify A:1 to acl A1new
check
`
	resolved, err := lai.Resolve(lai.MustParse(src), papernet.Build(), lai.ResolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.FindAllViolations = true
	opts.MaxRetries = 0
	opts.Backend = core.BackendSAT // the injected timeout wedges solver queries
	faultinject.Schedule(faultinject.CheckSolve, faultinject.Timeout)
	rep, err := core.RunContext(context.Background(), resolved, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Checks) != 1 || rep.Checks[0].Complete {
		t.Fatalf("check should be incomplete: %+v", rep.Checks)
	}
	var out bytes.Buffer
	rep.Print(&out)
	s := out.String()
	if !strings.Contains(s, "check: UNDECIDED") {
		t.Fatalf("report missing UNDECIDED line:\n%s", s)
	}
	if !strings.Contains(s, "undecided FEC") {
		t.Fatalf("report missing per-FEC undecided lines:\n%s", s)
	}
	if strings.Contains(s, "check: consistent") {
		t.Fatalf("an undecided check must not print as consistent:\n%s", s)
	}
}
