package core

import (
	"context"

	"jinjing/internal/acl"
	"jinjing/internal/header"
	"jinjing/internal/obs"
	"jinjing/internal/sat"
	"jinjing/internal/smt"
	"jinjing/internal/topo"
)

// Violation is one reachability inconsistency found by Check: a concrete
// counterexample packet, the FEC it belongs to, and the paths whose
// decision on it changed.
type Violation struct {
	Packet  header.Packet
	Classes []header.Prefix // the FEC's traffic classes
	Paths   []topo.Path     // paths that decide differently after the update
}

// CheckResult reports the outcome of the check primitive.
type CheckResult struct {
	Consistent bool
	Violations []Violation

	// Complete reports whether every FEC the scan needed reached a
	// verdict. When false, Consistent means only "no violation found
	// among the decided FECs": the FECs in Unknown ran out of budget or
	// were cancelled, and a consistent-but-incomplete result must not be
	// treated as a proof. Unknown lists them ascending by FEC index — the
	// canonical order partial results are reported in.
	Complete bool
	Unknown  []UnknownFEC

	// FECs is the number of forwarding equivalence classes examined;
	// SolvedFECs counts those whose Equation-3 query needed a solver
	// verdict — decided now or replayed from the verdict cache (the
	// rest were discharged by the Theorem 4.1 fast path or the SAT-free
	// pre-filter).
	FECs       int
	SolvedFECs int
	// Stats reports the incremental-verification activity of this call:
	// verdict-cache hits/misses, pre-filter discharges, and the
	// change-impact analysis of the current edit.
	Stats CacheStats
	// Forensics lists per-FEC solve forensics (verdict, route, deciding
	// backend's solve time, unknown reason) for every FEC the scan
	// examined, ascending. Populated only when Options.Forensics is set
	// or a decision ledger is attached; nil otherwise.
	Forensics []FECForensics
	// SolverStats aggregates the full SAT counters (decisions,
	// propagations, conflicts, restarts, learned, deleted) across every
	// solver the check spun up — including every worker's.
	SolverStats sat.Stats
	// Conflicts totals SAT conflict counts across all queries, the
	// stand-in for the paper's "DPLL recursive calls" (§9). It equals
	// SolverStats.Conflicts and is kept for compatibility.
	Conflicts int64
	// PeakHeapBytes is the call's highest sampled live-heap size
	// (runtime HeapAlloc). Sampled only when the sample is already paid
	// for — sharded runs (once per shard, while the shard's window and
	// builder are live), forensics, or an attached decision ledger —
	// and 0 otherwise; the stop-the-world cost of a MemStats read never
	// taxes the plain hot path.
	PeakHeapBytes int64
	Timings       Timings
}

// Check verifies packet (or desired, when controls are present)
// reachability consistency between the engine's Before and After
// snapshots, per Algorithm 1. Options.Workers > 1 fans the per-FEC
// queries out across a worker pool and Options.Shards > 1 streams them
// through bounded FEC windows; neither can change a result. Repeated
// calls on the same engine reuse the encoded queries and warmed solvers.
func (e *Engine) Check() *CheckResult {
	return e.CheckContext(context.Background())
}

// CheckContext is Check under a cancellation scope: ctx's cancellation
// (and Options.Deadline, whichever fires first) interrupts every solver
// the call has in flight. FECs left without a verdict are reported in
// CheckResult.Unknown with Complete=false, in canonical FEC order, and
// are never cached — a later unrestricted call re-solves them.
func (e *Engine) CheckContext(ctx context.Context) *CheckResult {
	return e.checkWith(ctx)
}

func (e *Engine) checkWith(callCtx context.Context) *CheckResult {
	o := e.obsv()
	ls := e.ledgerBegin()
	cn, endCall := e.beginCall(callCtx)
	defer endCall()
	attrs := []obs.Attr{obs.KV("mode", "sequential")}
	if e.Opts.Workers > 1 {
		attrs = []obs.Attr{obs.KV("mode", "parallel"), obs.KV("workers", e.Opts.Workers)}
	}
	root := e.startSpan("check", attrs...)
	res := &CheckResult{Consistent: true, Complete: true, Timings: Timings{}}

	pre := startPhase(root, res.Timings, "preprocess")
	ctx := e.checkContext(o)
	if ctx.fastPath {
		// No rule changed anywhere: trivially consistent.
		pre.end(obs.KV("diff_rules", 0))
		root.SetAttr("fast_path", true)
		root.End()
		e.logCheckDecision(ls, res)
		return res
	}
	pre.end(obs.KV("diff_rules", ctx.diffRules), obs.KV("acl_pairs", ctx.aclPairs))

	fp := startPhase(root, res.Timings, "fec")
	e.prepareIncremental(ctx)
	res.FECs = ctx.nfec
	fp.end(obs.KV("fecs", ctx.nfec))
	statsBase := ctx.stats
	ctx.peakHeap, ctx.maxNodes = 0, 0

	// Detection: hits is ascending violating FEC indices (at most the
	// lowest one in first-violation mode); last is the highest FEC index
	// the scan semantically examined (early stops leave the tail
	// unexamined).
	hits, last := e.solveWindows(cn, ctx, res, root, o)
	res.SolvedFECs = solvedFECs(ctx, last)
	collectUnknown(ctx, res, last, o)

	// Witness extraction: each violating FEC's counterexample is the
	// canonical one — re-derived on a fresh builder and solver, a pure
	// function of the FEC and the encoded ACL contents — so reported
	// violations are byte-identical across worker counts, across warm
	// and cold runs, and across cache replays (which memoize exactly
	// these witnesses).
	if len(hits) > 0 {
		res.Consistent = false
		wp := startPhase(root, res.Timings, "witness")
		cached := 0
		for _, i := range hits {
			v, memo := e.witnessFor(ctx, i, res, o)
			if memo {
				cached++
			}
			res.Violations = append(res.Violations, v)
		}
		wp.end(obs.KV("violations", len(res.Violations)), obs.KV("cached", cached))
	}

	ctx.commitGeneration()
	res.Stats = ctx.stats.since(statsBase)
	recordCacheStats(o, res.Stats)
	o.Gauge("impact.changed_bindings").Set(int64(res.Stats.ChangedBindings))
	o.Gauge("impact.affected_fecs").Set(int64(res.Stats.AffectedFECs))

	res.Conflicts = res.SolverStats.Conflicts
	o.Gauge("smt.nodes").Set(ctx.maxNodes)
	// Shards already paid for heap samples (see closeWindow); otherwise
	// only forensics or a ledger buys one.
	if ctx.peakHeap > 0 || e.Opts.Forensics || e.Opts.DecisionLog != nil {
		ctx.sampleHeap()
		res.PeakHeapBytes = ctx.peakHeap
		o.Gauge("mem.heap_peak_bytes").Set(ctx.peakHeap)
	}
	o.Counter("check.fecs").Add(int64(res.FECs))
	o.Counter("check.fecs.solved").Add(int64(res.SolvedFECs))
	o.Counter("check.violations").Add(int64(len(res.Violations)))
	if e.Opts.Forensics || e.Opts.DecisionLog != nil {
		res.Forensics = ctx.forensicsList(last)
		if slow := slowestForensics(res.Forensics); slow != nil {
			root.SetAttr("slowest_fec", slow.FEC)
			root.SetAttr("slowest_fec_route", slow.Route)
			root.SetAttr("slowest_fec_ns", slow.SolveNS)
		}
	}
	root.SetAttr("consistent", res.Consistent)
	root.End()
	e.logCheckDecision(ls, res)
	return res
}

// solveWindows is Algorithm 1's detection loop. It walks the FEC
// windows in ascending order (see openWindow): the whole index space on
// the engine's persistent session, or one shard range at a time on a
// throwaway one. Each window resolves its FECs in order and decides the
// queries left pending (solveWindow). In first-violation mode the walk
// stops at the first violation — the global minimum, since windows
// ascend — and hits holds just that FEC; in find-all mode hits lists
// every violating FEC ascending. last is the highest FEC index the scan
// semantically examined.
func (e *Engine) solveWindows(cn *canceller, ctx *checkCtx, res *CheckResult, root *obs.Span, o *obs.Observer) (hits []int, last int) {
	task := o.StartTask("check: FECs", int64(ctx.nfec))
	defer task.Done()
	for _, w := range ctx.windows(e.Opts.Shards) {
		s := ctx.openWindow(w, e.Opts.UseTournament, o)
		first := e.solveWindow(cn, ctx, s, w, res, root, o, task)
		ctx.closeWindow(w, s, o)
		if first >= 0 {
			return []int{first}, first
		}
		if cn.cancelled() {
			// Windows never opened hold FECs the scan semantically
			// examined but could not decide.
			ctx.markCancelled(w.Hi, ctx.nfec)
			break
		}
	}
	if e.Opts.FindAllViolations {
		for i := 0; i < ctx.nfec; i++ {
			if ctx.states[i] == fecViolating {
				hits = append(hits, i)
			}
		}
	}
	return hits, ctx.nfec - 1
}

// solveWindow resolves window w's FECs in order — differential skip,
// cached-verdict replay, SAT-free pre-filter, pset backend — and
// decides the queries left pending on session s. With one worker each
// pending query is decided as soon as it is resolved, so a
// first-violation scan resolves nothing past its answer; with more, the
// window's pending queries fan out across the worker pool once it is
// resolved (decidePending), and resolution stops only at a replayed
// violation. A budget-exhausted FEC is marked Unknown and the scan
// continues (one pathological query must not starve the rest); a
// cancellation marks everything undecided Unknown and stops. Returns
// the lowest violating FEC index in first-violation mode, or -1.
func (e *Engine) solveWindow(cn *canceller, ctx *checkCtx, s *checkSession, w topo.ShardRange, res *CheckResult, root *obs.Span, o *obs.Observer, task *obs.Task) int {
	findAll := e.Opts.FindAllViolations
	inline := e.Opts.Workers <= 1
	phase := "encode"
	if inline {
		phase = "solve"
	}
	ph := startPhase(root, res.Timings, phase)
	var so solveObs
	var solver *smt.Solver
	var base sat.Stats
	if inline {
		so = solveObsFor(o, ph.sp)
		solver = s.sequential()
		cn.register(solver)
		base = solver.Stats()
	}
	ctx.resolveSpan = ph.sp
	first, decided := -1, 0
	var pend []checkJob
	for i := w.Lo; i < w.Hi; i++ {
		if cn.cancelled() {
			ctx.markCancelled(i, w.Hi)
			break
		}
		st := e.resolveFEC(ctx, i)
		if st == fecPending {
			j := ctx.jobs[ctx.jobOf[i]]
			if !inline {
				pend = append(pend, j)
				continue
			}
			gotVerdict, satisfiable := e.decideJob(cn, solver, ctx, j, o, so)
			if !gotVerdict {
				continue
			}
			decided++
			task.Add(1)
			if satisfiable {
				st = fecViolating
			}
		}
		if st == fecViolating && !findAll {
			first = i
			break
		}
	}
	ctx.resolveSpan = nil
	if inline {
		recordSolverStats(o, &res.SolverStats, statsSince(solver.Stats(), base))
		ph.end(obs.KV("decided", decided))
		return first
	}
	ph.end(obs.KV("jobs", len(pend)))
	// Every pending job precedes a replayed first violation, so a hit
	// among them is the lower one.
	if hit := e.decidePending(cn, ctx, s, res, root, o, task, pend); hit >= 0 {
		return hit
	}
	return first
}

// fecTouchesDiff reports whether any differential rule can match traffic
// in the FEC (the Theorem 4.1 skip test).
func (e *Engine) fecTouchesDiff(fec topo.FEC, diff []acl.Rule) bool {
	for _, c := range fec.Classes {
		cm := header.DstMatch(c)
		for _, d := range diff {
			if cm.Overlaps(d.Match) {
				return true
			}
		}
	}
	return false
}

// fecViolationFormula builds ⋁_{p∈𝒴} ¬(desired_p ⇔ c'_p) for the FEC's
// forwarding paths (Equation 3, with desired_p per §6 when controls are
// present).
func (e *Engine) fecViolationFormula(enc *encoder, fec topo.FEC, encodeACLs map[string][2]*acl.ACL) smt.F {
	out := smt.False
	for _, p := range fec.Paths {
		desired, after := e.pathFormulas(enc, p, encodeACLs)
		out = enc.b.Or(out, enc.b.Iff(desired, after).Not())
	}
	return out
}

// pathFormulas returns (desired_p, c'_p): the desired decision model of
// path p (the original c_p adjusted by control intents) and the
// post-update decision model.
func (e *Engine) pathFormulas(enc *encoder, p topo.Path, encodeACLs map[string][2]*acl.ACL) (desired, after smt.F) {
	before := smt.True
	after = smt.True
	for _, bind := range p.Bindings() {
		pair, ok := encodeACLs[bind.ID()]
		if !ok {
			continue // no ACL in either snapshot
		}
		before = enc.b.And(before, enc.encodeACL(pair[0]))
		after = enc.b.And(after, enc.encodeACL(pair[1]))
	}
	desired = e.desiredFormula(enc, p, before)
	return desired, after
}

// desiredFormula composes the §6 reachability-update model r_p over the
// original path decision: the first (highest-priority) control whose
// From/To pair governs p and whose match covers the packet dictates the
// outcome; otherwise the original decision is maintained.
func (e *Engine) desiredFormula(enc *encoder, p topo.Path, orig smt.F) smt.F {
	out := orig
	// Later controls have lower priority, so fold in reverse: the first
	// control ends up outermost.
	for i := len(e.Controls) - 1; i >= 0; i-- {
		c := e.Controls[i]
		if !c.AppliesTo(p) {
			continue
		}
		var val smt.F
		switch c.Mode {
		case Isolate:
			val = smt.False
		case Open:
			val = smt.True
		case Maintain:
			val = orig
		}
		out = enc.b.Ite(enc.b.MatchPred(enc.pv, c.Match), val, out)
	}
	return out
}
