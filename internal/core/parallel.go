package core

import (
	"sync"
	"sync/atomic"

	"jinjing/internal/acl"
	"jinjing/internal/faultinject"
	"jinjing/internal/obs"
	"jinjing/internal/pset"
	"jinjing/internal/sat"
	"jinjing/internal/smt"
	"jinjing/internal/topo"
)

// checkJob is one encoded Equation-3 query: a single FEC's violation
// formula conjoined with its class predicate, plus the content key its
// verdict is cached under. Counterexample attribution happens in the
// canonical witness pass (see witnessFEC), so jobs carry no path
// equivalences.
type checkJob struct {
	fecIdx int
	query  smt.F
	key    []uint64
}

// checkSession is the solver state a FEC window is decided on: the
// content-addressed encoder (its builder grows monotonically,
// hash-consing unchanged cones across edits), the sequential detection
// solver, the fully clausified prototype the workers fork from, and the
// pooled idle forks. The engine's session outlives a single After
// snapshot — UpdateAfter keeps it, so a warm re-check re-encodes only
// what the edit changed; each shard gets a throwaway one.
type checkSession struct {
	enc   *encoder
	seq   *smt.Solver
	proto *smt.Solver
	free  []*smt.Solver
}

// sequential returns the session's sequential solver, creating it on
// first use.
func (s *checkSession) sequential() *smt.Solver {
	if s.seq == nil {
		s.seq = smt.SolverOn(s.enc.b)
	}
	return s.seq
}

// checkCtx is one generation of the check pipeline — the derived state
// for the engine's current Before/After pair: differential rules,
// related-filtered encoding pairs and their fingerprints, and the
// per-FEC incremental resolution state (see resolveFEC). It is cached
// on the engine and invalidated by UpdateAfter; the checkSession it
// points at survives across generations.
type checkCtx struct {
	sess *checkSession

	pairs      []aclPair
	diff       []acl.Rule
	encodeACLs map[string][2]*acl.ACL // binding ID -> {before, after}
	pairFPs    map[string][2]uint64   // binding ID -> encoded pair fingerprints
	// slots is the interned fast path of fecKey (see slotIndex),
	// aliasing the engine's per-FEC slot lists. Built by
	// prepareIncremental, read-only after.
	slots [][]int32
	// pairRefs resolves a binding ID to its stable cache pair reference
	// for this generation (0 / absent = unbound); fpRef is the same
	// projection onto the dense slot indices for the interned fast path.
	pairRefs map[string]uint64
	fpRef    []uint64
	// keyOff/keyArena back fecKey's fast path with one shared buffer:
	// FEC i's key occupies keyArena[keyOff[i]:keyOff[i+1]], written only
	// by the goroutine resolving FEC i.
	keyOff    []int
	keyArena  []uint64
	fastPath  bool
	diffRules int
	aclPairs  int

	// Exactly one of fecs/src is set: fecs is the full materialization
	// (unsharded engines), src the streaming index (sharded engines).
	// nfec is the FEC count either way; all pipeline code goes through
	// the fec/numFECs accessors so both representations behave alike.
	fecs []topo.FEC
	src  *topo.FECSource
	nfec int
	// window is the currently materialized shard [winLo, winLo+len),
	// and shard its throwaway session; both are set only while a shard
	// is open (see openWindow).
	window []topo.FEC
	winLo  int
	shard  *checkSession
	// maxNodes is the largest window builder of the current call (the
	// smt.nodes gauge); peakHeap is the call's max sampled heap (see
	// sampleHeap).
	maxNodes int64
	peakHeap int64

	// Incremental resolution state (sized by prepareIncremental).
	incReady bool
	states   []fecState
	entries  []*fecVerdict
	// unknownReason says why states[i] == fecUnknown (cancelled, budget
	// exhausted, ...). Workers write distinct indices concurrently.
	unknownReason []string
	jobOf         []int32 // fecIdx -> index into jobs, -1 when none
	jobs          []checkJob
	// Solve forensics (see forensics.go): routes[i] records how FEC i's
	// verdict was established, solveNS[i] its complete-backend decision
	// time. Workers write distinct indices concurrently.
	routes  []fecRoute
	solveNS []int64
	// resolveSpan parents the per-FEC spans resolveFEC emits for
	// pset-backend decisions. Set only around solveWindow's
	// single-goroutine resolution loop.
	resolveSpan *obs.Span
	// protoJobs counts the jobs already clausified into the prototype
	// this generation (unchanged cones hash-cons to already-clausified
	// nodes, so re-clausification across generations is cheap).
	protoJobs int

	// wit memoizes canonical witnesses per FEC for this generation.
	wit map[int]*Violation

	// trivMu guards pairTriv and pairSyn (fix workers probe the
	// pre-filter concurrently). pairSyn memoizes the purely syntactic
	// equivalence legs (trivialPair) — the pset backend's changed/
	// unchanged classification, which must never trigger the exact leg's
	// set construction.
	trivMu   sync.Mutex
	pairTriv map[string]bool
	pairSyn  map[string]bool

	// psetMu guards bindSets and the ACL-level set cache shared by the
	// pre-filter's exact leg and the complete pset backend. aclSets
	// dedups set construction by ACL pointer (the same ACL is bound at
	// many interfaces, so binding-level memoization alone rebuilds the
	// same set per binding); aclSetsFP resolves structurally equal
	// clones, mirroring the encoder's fingerprint fallback.
	psetMu     sync.Mutex
	bindSets   map[string]*bindingSet
	aclSets    map[*acl.ACL]aclSetEntry
	aclSetsFP  map[uint64][]aclFPSetEntry
	pairDiffs  map[[2]*acl.ACL]pset.Set
	diffBounds map[[2]*acl.ACL]pset.Set
	pairEq     map[[2]*acl.ACL]bool
	pairProf   map[[2]*acl.ACL][2]int

	// Verdict-cache view for this generation: the bound cache, the
	// change-impact bitmap (nil on the first generation), and the
	// previous generation's entries.
	vc       *VerdictCache
	affected []bool
	lastGen  []*fecVerdict

	stats CacheStats
}

// fec returns FEC i regardless of representation: the materialized
// slice, the open shard window, or a one-off materialization from the
// streaming index (witness passes touch hit FECs after their shard's
// window is released).
func (ctx *checkCtx) fec(i int) topo.FEC {
	if ctx.fecs != nil {
		return ctx.fecs[i]
	}
	if ctx.window != nil && i >= ctx.winLo && i < ctx.winLo+len(ctx.window) {
		return ctx.window[i-ctx.winLo]
	}
	return ctx.src.Materialize(i)
}

// numFECs returns the generation's FEC count.
func (ctx *checkCtx) numFECs() int { return ctx.nfec }

// enc returns the encoder FEC formulas are built on: the open shard's
// private encoder in sharded mode, the session encoder otherwise.
func (ctx *checkCtx) enc() *encoder {
	if ctx.shard != nil {
		return ctx.shard.enc
	}
	return ctx.sess.enc
}

// checkContext returns the engine's cached per-generation check state,
// deriving it on first use: Theorem 4.1 preprocessing (differential
// rules and related-rule filtering), the encoded-pair fingerprints the
// verdict cache keys on, and the session (shared encoder + persistent
// solvers), which is reused across generations.
func (e *Engine) checkContext(o *obs.Observer) *checkCtx {
	if e.ckctx != nil {
		return e.ckctx
	}
	if e.sess == nil {
		e.sess = &checkSession{enc: newEncoder(e.Opts.UseTournament, o)}
	}
	ctx := &checkCtx{sess: e.sess, pairTriv: map[string]bool{}}
	pairs := e.scopeACLPairs()
	ctx.pairs = pairs
	ctx.aclPairs = len(pairs)
	ctx.encodeACLs = make(map[string][2]*acl.ACL, len(pairs))
	if e.Opts.UseDifferential {
		for _, p := range pairs {
			ctx.diff = append(ctx.diff, acl.Differential(orPermitAll(p.before), orPermitAll(p.after))...)
		}
		// §6: control-related prefixes join the differential set so their
		// related rules survive filtering.
		for _, c := range e.Controls {
			if !c.Match.IsAll() {
				ctx.diff = append(ctx.diff, acl.Rule{Action: acl.Permit, Match: c.Match})
			}
		}
		if len(ctx.diff) == 0 && len(e.Controls) == 0 {
			ctx.fastPath = true
			e.ckctx = ctx
			return ctx
		}
		for _, p := range pairs {
			ctx.encodeACLs[p.binding.ID()] = [2]*acl.ACL{
				acl.Related(orPermitAll(p.before), ctx.diff),
				acl.Related(orPermitAll(p.after), ctx.diff),
			}
		}
	} else {
		for _, p := range pairs {
			ctx.encodeACLs[p.binding.ID()] = [2]*acl.ACL{orPermitAll(p.before), orPermitAll(p.after)}
		}
	}
	ctx.diffRules = len(ctx.diff)
	ctx.pairFPs = make(map[string][2]uint64, len(ctx.encodeACLs))
	for id, pr := range ctx.encodeACLs {
		ctx.pairFPs[id] = [2]uint64{pr[0].Fingerprint(), pr[1].Fingerprint()}
	}
	e.ckctx = ctx
	return ctx
}

// decidePending decides a window's pending Equation-3 queries across a
// pool of worker solvers — the one check fan-out. Each query's cone is
// Tseitin-clausified once into session s's prototype (incrementally:
// protoJobs counts the generation's jobs already in it), and workers
// decide on forks of it. The engine's persistent session keeps the
// prototype and its forks for later calls; a shard's session dies with
// the shard. Returns the lowest violating FEC index decided here in
// first-violation mode, or -1 (always, in find-all mode).
func (e *Engine) decidePending(cn *canceller, ctx *checkCtx, s *checkSession, res *CheckResult, root *obs.Span, o *obs.Observer, task *obs.Task, pend []checkJob) int {
	findAll := e.Opts.FindAllViolations
	workers := e.Opts.Workers
	sp := startPhase(root, res.Timings, "solve")
	if s.proto == nil {
		s.proto = smt.SolverOn(s.enc.b)
	}
	for _, j := range ctx.jobs[ctx.protoJobs:] {
		s.proto.EnsureClausified(j.query)
	}
	ctx.protoJobs = len(ctx.jobs)
	o.Gauge("smt.proto.clauses").Set(int64(s.proto.NumClauses()))

	if workers > len(pend) {
		workers = len(pend)
	}
	so := solveObsFor(o, sp.sp)
	jobsHist := o.Histogram("check.worker_jobs")
	var (
		next   atomic.Int64
		minHit atomic.Int64
		mu     sync.Mutex
		agg    sat.Stats
		wg     sync.WaitGroup
	)
	minHit.Store(int64(len(pend)))

	// requeue holds jobs dropped by crashed workers: a worker that
	// panics pushes the job it died on (plus, in find-all mode, the
	// untouched remainder of its static slice) and exits; survivors
	// drain the queue after their own work. If every worker dies, the
	// sequential fallback below finishes whatever is still pending.
	var (
		reqMu   sync.Mutex
		requeue []int
	)
	pushRequeue := func(ks ...int) {
		reqMu.Lock()
		requeue = append(requeue, ks...)
		reqMu.Unlock()
	}
	popRequeue := func() (int, bool) {
		reqMu.Lock()
		defer reqMu.Unlock()
		if len(requeue) == 0 {
			return 0, false
		}
		k := requeue[len(requeue)-1]
		requeue = requeue[:len(requeue)-1]
		return k, true
	}

	// Hand each worker a pooled solver when one is idle; the rest fork
	// the prototype inside their own goroutine, so the clause-database
	// copies — the dominant fixed cost of fanning out — run concurrently
	// instead of serializing on the caller. Pool order is preserved
	// across calls so worker w re-acquires the same solver it used last
	// time; with the static find-all partition below, that solver's
	// learned clauses stay matched to the queries it re-solves.
	pool := make([]*smt.Solver, workers)
	take := workers
	if take > len(s.free) {
		take = len(s.free)
	}
	copy(pool, s.free[:take])
	s.free = append(s.free[:0], s.free[take:]...)

	for w := range pool {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			solver := pool[w]
			if solver == nil {
				solver = s.proto.Fork()
				pool[w] = solver
			}
			cn.register(solver)
			base := solver.Stats()
			var nsolved int64
			crashed := false
			// runJob decides one job, absorbing a panic (injected or
			// real) into ok=false so the worker can hand its remaining
			// jobs to the survivors instead of taking the check down.
			runJob := func(k int) (ok bool) {
				defer func() {
					if r := recover(); r != nil {
						o.Counter("worker.panic.recovered").Inc()
						ok = false
					}
				}()
				if faultinject.Fire(faultinject.ParallelJob) == faultinject.Panic {
					panic("faultinject: injected panic at " + string(faultinject.ParallelJob))
				}
				decided, satisfiable := e.decideJob(cn, solver, ctx, pend[k], o, so)
				nsolved++
				task.Add(1)
				if decided && satisfiable && !findAll {
					for {
						cur := minHit.Load()
						if int64(k) >= cur || minHit.CompareAndSwap(cur, int64(k)) {
							break
						}
					}
				}
				return true
			}
			if findAll {
				// Every pending job must be solved, so carve the list into
				// static contiguous slices: worker w re-solves the same
				// region on every call, and its persistent solver's learned
				// clauses stay matched to its queries.
				n := len(pend)
				lo, hi := w*n/workers, (w+1)*n/workers
				for k := lo; k < hi; k++ {
					if !runJob(k) {
						rest := make([]int, 0, hi-k)
						for j := k; j < hi; j++ {
							rest = append(rest, j)
						}
						pushRequeue(rest...)
						crashed = true
						break
					}
				}
				if !crashed {
					for {
						k, fromQueue := popRequeue()
						if !fromQueue {
							break
						}
						if !runJob(k) {
							pushRequeue(k)
							crashed = true
							break
						}
					}
				}
			} else {
				// First-violation mode: drain crashed peers' jobs first,
				// then pull fresh ones dynamically, skipping everything
				// past the lowest hit found so far — it cannot be the
				// answer.
				for {
					k, fromQueue := popRequeue()
					if !fromQueue {
						k = int(next.Add(1)) - 1
						if k >= len(pend) {
							break
						}
					}
					if int64(k) > minHit.Load() {
						continue
					}
					if !runJob(k) {
						pushRequeue(k)
						crashed = true
						break
					}
				}
			}
			mu.Lock()
			agg.Add(statsSince(solver.Stats(), base))
			mu.Unlock()
			if jobsHist != nil {
				jobsHist.Observe(nsolved)
			}
			if crashed {
				// A panic mid-search leaves the solver in an unspecified
				// state; poison it so it never rejoins the pool.
				pool[w] = nil
			}
		}(w)
	}
	wg.Wait()

	// Sequential fallback: anything still pending means worker crashes
	// outran the requeue — in the limit, the whole pool collapsed.
	// Finish on the session's sequential solver with no panic recovery:
	// a bug deterministic enough to kill every worker should surface,
	// not loop.
	var seqBase sat.Stats
	seqUsed := false
	for k := range pend {
		if ctx.states[pend[k].fecIdx] != fecPending {
			continue
		}
		if !findAll && int64(k) > minHit.Load() {
			continue
		}
		if cn.cancelled() {
			ctx.markUnknown(pend[k].fecIdx, reasonCancelled)
			continue
		}
		if !seqUsed {
			cn.register(s.sequential())
			seqBase = s.seq.Stats()
			seqUsed = true
		}
		decided, satisfiable := e.decideJob(cn, s.seq, ctx, pend[k], o, so)
		task.Add(1)
		if decided && satisfiable && !findAll {
			if cur := minHit.Load(); int64(k) < cur {
				minHit.Store(int64(k))
			}
		}
	}
	if seqUsed {
		agg.Add(statsSince(s.seq.Stats(), seqBase))
	}
	for _, solver := range pool {
		if solver != nil {
			s.free = append(s.free, solver)
		}
	}
	recordSolverStats(o, &res.SolverStats, agg)
	sp.end(obs.KV("decided", len(pend)))
	if h := minHit.Load(); h < int64(len(pend)) {
		return pend[h].fecIdx
	}
	return -1
}

// statsSince subtracts a baseline snapshot from cumulative solver
// counters, so persistent solvers report per-call deltas.
func statsSince(cur, base sat.Stats) sat.Stats {
	return sat.Stats{
		Decisions:    cur.Decisions - base.Decisions,
		Propagations: cur.Propagations - base.Propagations,
		Conflicts:    cur.Conflicts - base.Conflicts,
		Restarts:     cur.Restarts - base.Restarts,
		Learned:      cur.Learned - base.Learned,
		Deleted:      cur.Deleted - base.Deleted,
	}
}
