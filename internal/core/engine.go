// Package core implements the Jinjing engine — the paper's contribution:
// the check primitive (§4.1, Algorithm 1 with the differential-rules
// optimization of Theorem 4.1), the fix primitive (§4.2, counterexample
// neighborhoods and SMT-placed fixing rules), the generate primitive
// (§5, ACL/dataplane equivalence classes and ACL synthesis), and the
// control extension (§6, desired-reachability consistency).
package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"jinjing/internal/acl"
	"jinjing/internal/header"
	"jinjing/internal/obs"
	"jinjing/internal/obs/declog"
	"jinjing/internal/smt"
	"jinjing/internal/topo"
)

// ControlMode is a §6 reachability-update verb.
type ControlMode int

// The control modes.
const (
	Isolate ControlMode = iota
	Open
	Maintain
)

// String renders the mode keyword.
func (m ControlMode) String() string {
	switch m {
	case Isolate:
		return "isolate"
	case Open:
		return "open"
	default:
		return "maintain"
	}
}

// Control is a resolved reachability intent: traffic matching Match from
// any of the From border interfaces to any of the To border interfaces is
// isolated, opened, or maintained. Earlier controls take precedence over
// later ones (§6).
type Control struct {
	From  map[string]bool // border interface IDs
	To    map[string]bool
	Mode  ControlMode
	Match header.Match
}

// AppliesTo reports whether the control governs paths from p's entry
// border interface to its exit border interface.
func (c Control) AppliesTo(p topo.Path) bool {
	return c.From[p.Src().ID()] && c.To[p.Dst().ID()]
}

// Options tune the engine. The zero value disables every optimization;
// use DefaultOptions for the paper's full configuration. The switches
// exist so the benchmarks can reproduce the paper's with/without-
// optimization comparisons (Figures 4a–4c).
type Options struct {
	// UseDifferential enables the Theorem 4.1 preprocessing: ACLs are
	// filtered to differential-related rules before encoding.
	UseDifferential bool
	// UseTournament selects the O(log n)-depth tournament decision
	// encoding instead of the sequential one (§4.1).
	UseTournament bool
	// FindAllViolations makes Check enumerate one violation per FEC
	// instead of returning at the first (fix needs them all).
	FindAllViolations bool
	// UseGrouping enables §5.5 rule grouping before sequence encoding.
	UseGrouping bool
	// SimplifyOutput runs model-preserving simplification over ACLs
	// produced by fix and generate (§5.5 "generating fewer ACL rules",
	// §4.2 "simplifying the final ACL").
	SimplifyOutput bool
	// UseSearchTree accelerates group-overlap computation with a prefix
	// search tree (§5.5).
	UseSearchTree bool
	// MaxNeighborhoods caps the fix loop as a safety valve (0 = the
	// default of 10000).
	MaxNeighborhoods int
	// DisableExpansion makes fix treat each counterexample packet as its
	// own neighborhood — the strawman §4.2 warns needs over 10^31
	// iterations in the worst case. Exists only for the ablation bench;
	// use together with a small MaxNeighborhoods.
	DisableExpansion bool
	// Backend selects the decision procedure for per-FEC Equation-3
	// queries: the Tseitin+CDCL stack, the packet-set algebra, or (the
	// zero value) per-FEC auto-selection. Verdicts, counterexamples, and
	// every reported count are identical whichever backend answers — the
	// pset backend is complete on the queries it accepts and bails out
	// to the solver on a cube-budget blow-up — so the choice (like
	// Workers) can never change a result, only its cost. Cached verdicts
	// are backend-agnostic for the same reason: the cache key doesn't
	// mention the backend, and a verdict decided under one setting
	// replays under any other.
	Backend Backend
	// Workers > 1 fans the solver loops of all three primitives out
	// across that many goroutines: check's per-FEC Equation-3 queries
	// (persistent forked-solver pool; see decidePending), fix's per-FEC
	// neighborhood seeking, and generate's per-AEC synthesis. Results
	// merge in deterministic FEC/AEC order, so verdicts, violations,
	// fixing plans, and generated ACLs are byte-identical for every
	// worker count (pinned by the differential fuzz harness and the CLI
	// golden test).
	Workers int
	// Shards > 1 streams Check through that many contiguous FEC shards
	// instead of materializing the whole scope at once: FECs are derived
	// lazily from a streaming index (topo.FECSource), each shard gets its
	// own encoder and solver whose formulas are released when the shard
	// completes, and generate's class derivation bounds its cross-product
	// guard per destination shard rather than globally. Shards are
	// verified in FEC order and merged deterministically, so verdicts,
	// counterexamples, and every reported count are byte-identical to the
	// unsharded engine at any worker count (pinned by the shard fuzz lane
	// and the CLI golden test) — like Workers, the setting can only
	// change cost, never a result. The trade is warm-path speed for peak
	// memory: sharded sessions rebuild per-shard formulas on every call
	// (the verdict cache still short-circuits unchanged FECs), in
	// exchange for live solver memory bounded by the largest shard.
	Shards int
	// Obs receives spans, metrics, and progress from every primitive.
	// nil (the default) disables observability at zero cost: the no-op
	// path adds no allocations to the solve hot loop (guarded by a
	// testing.AllocsPerRun test in internal/obs).
	Obs *obs.Observer
	// Deadline, when positive, bounds each primitive call's wall-clock
	// time: the call runs under a context with this timeout, and on
	// expiry every in-flight solver query is interrupted. Check reports
	// the undecided FECs in CheckResult.Unknown (partial results stay in
	// canonical order and are never cached); fix and generate refuse to
	// emit a plan and return ErrUnknownVerdicts. Combines with any
	// deadline already on the caller's context (the earlier one wins).
	Deadline time.Duration
	// PerFECBudget, when positive, caps the SAT conflicts a single
	// solver query (one FEC's Equation-3 decision, one fix seek
	// iteration, one generate AEC attempt) may spend before it is
	// declared Unknown. Exhaustion is retried with a 4x larger budget up
	// to MaxRetries times; the solver resumes rather than restarts, so
	// escalation wastes no work. Bounds the damage of one pathological
	// FEC without giving up on the rest of the check.
	PerFECBudget int64
	// MaxRetries is how many times an Unknown query (budget exhausted,
	// injected timeout, transient fault) is retried before the Unknown
	// becomes final. 0 means no retries. Cancellation is never retried.
	MaxRetries int
	// Forensics makes Check attach per-FEC solve forensics — the route
	// that established each verdict (skip, cache replay, pre-filter,
	// pset, SAT), the deciding backend's solve time, and unknown
	// reasons — to CheckResult.Forensics. Off by default: the raw route
	// and timing words are always recorded (two words per FEC), but the
	// result slice is materialized only on demand. Implied by
	// DecisionLog.
	Forensics bool
	// DecisionLog, when set, appends one structured JSONL audit record
	// per top-level check/fix/generate call to the decision ledger:
	// config fingerprints, per-FEC verdicts with route/cache-hit/
	// solve-time/unknown-reason forensics, witnesses, budgets hit, and
	// wall/CPU time. Verification checks run inside fix/generate are
	// covered by the parent record (derived engines clear the logger).
	// Never changes verdicts or stdout.
	DecisionLog *declog.Logger
	// Verdicts, when set, is the cross-engine FEC verdict cache that
	// makes re-checks incremental: engines bound to the same Before/
	// Scope/controls/encoding configuration replay cached per-FEC
	// verdicts and memoized counterexamples for every FEC whose encoded
	// ACL tuple is unchanged, byte-identical to a cold run. The cache
	// resets itself when a differently-configured engine binds it. Run
	// installs one automatically; direct Engine users opt in with
	// NewVerdictCache. nil disables caching (every check is cold).
	Verdicts *VerdictCache
}

// DefaultOptions returns the paper's full configuration.
func DefaultOptions() Options {
	return Options{
		UseDifferential:   true,
		UseTournament:     true,
		FindAllViolations: false,
		UseGrouping:       true,
		SimplifyOutput:    true,
		UseSearchTree:     true,
		// Two escalating retries make a tight PerFECBudget useful: the
		// solver resumes across attempts, so the allowance effectively
		// grows 1x -> 4x -> 16x before an Unknown becomes final. Inert
		// on the happy path (no budget, no faults, no deadline).
		MaxRetries: 2,
	}
}

// Engine runs Jinjing primitives over a network pair (before/after the
// update) within a scope.
type Engine struct {
	Before   *topo.Network
	After    *topo.Network
	Scope    *topo.Scope
	Controls []Control
	// Allow lists the ACL attachment points fix may change and generate
	// may write (the LAI allow region).
	Allow []topo.ACLBinding
	Opts  Options

	// parentSpan, when set, nests the primitives' root spans under an
	// enclosing span (Run's "run" span); primitives called directly
	// emit root-level spans.
	parentSpan *obs.Span

	// paths and classes are computed lazily and shared across primitives.
	paths   []topo.Path
	classes []header.Prefix
	// pathFwd holds, per path, the classes the forwarding walk found it
	// forwards, from Paths until fecSource groups classes from it.
	pathFwd [][]int32
	fecs    []topo.FEC
	// fecSrc is the FEC index: fecs materializes it, and Opts.Shards > 1
	// streams from it instead. Before-derived, so it is shared with
	// derived verification engines and survives UpdateAfter.
	fecSrc *topo.FECSource

	// depIdx is the lazily built dependency index (binding ID -> FEC
	// indices) of the change-impact analysis; Before-derived, so it is
	// shared with derived verification engines and survives UpdateAfter.
	depIdx map[string][]int

	// slotIdx is the lazily built binding-slot interning behind fecKey:
	// a dense index per on-path binding ID plus, per FEC, the index of
	// each of its key slots in path order — so key derivation is slice
	// indexing instead of per-slot string building and map hashing.
	// Before-derived, shared with derived engines, unavailable (nil)
	// under sharded streaming.
	slotIdx *slotIndex

	// snapDigest memoizes verdictSnapshotDigest for snapDigestN FECs:
	// the digest hashes the engine's full path set, and a snapshotting
	// daemon recomputes it on every periodic Export. Engine-lifetime
	// state like paths/fecs (everything it digests is Before-derived
	// and fixed at construction).
	snapDigest  string
	snapDigestN int

	// ckctx caches the check pipeline's per-generation state (one
	// Before/After pair): differential rules, encoded pairs, per-FEC
	// resolution. Invalidated by UpdateAfter; see checkCtx.
	ckctx *checkCtx
	// sess holds the solver state that outlives a generation — the
	// content-addressed encoder and the persistent sequential/parallel
	// solvers — so warm re-checks re-encode only what an edit changed.
	sess *checkSession
}

// New builds an engine. after may equal before (for pure generate tasks).
func New(before, after *topo.Network, scope *topo.Scope, opts Options) *Engine {
	if after == nil {
		after = before
	}
	return &Engine{Before: before, After: after, Scope: scope, Opts: opts}
}

// UpdateAfter replaces the engine's After snapshot in place — the
// incremental edit entry point. Every Before-derived artifact (paths,
// classes, FECs, the dependency index), the solver session, and the
// bound verdict cache survive; only the per-generation check state is
// rebuilt, so the next Check re-solves just the FECs the edit can
// reach and replays cached verdicts for the rest.
func (e *Engine) UpdateAfter(after *topo.Network) {
	if after == nil {
		after = e.Before
	}
	e.After = after
	e.ckctx = nil
}

// ReleaseSession drops the engine's warm solver state — the shared
// encoder, the persistent sequential solver, the clausified prototype,
// and the pooled worker forks — along with the current generation's
// check state. A long-lived host (the jinjingd daemon) calls it when a
// session is evicted or idles out, so solver memory is reclaimable
// without discarding the engine or its bound verdict cache; the next
// Check rebuilds the session cold but replays cached verdicts as usual.
func (e *Engine) ReleaseSession() {
	e.sess = nil
	e.ckctx = nil
}

// derived builds a verification engine over a new After snapshot that
// shares the parent's Before-derived artifacts — paths, classes, FECs,
// dependency index — and its solver session and verdict cache, so the
// verification re-checks of fix and generate only re-solve the FECs
// their edits touched.
func (e *Engine) derived(after *topo.Network, parent *obs.Span) *Engine {
	opts := e.Opts
	// The parent primitive's ledger record covers its verification
	// checks; a derived engine logging them too would double-count.
	opts.DecisionLog = nil
	return &Engine{
		Before: e.Before, After: after, Scope: e.Scope,
		Controls: e.Controls, Opts: opts, parentSpan: parent,
		paths: e.paths, pathFwd: e.pathFwd, classes: e.classes, fecs: e.fecs,
		fecSrc: e.fecSrc, depIdx: e.depIdx, slotIdx: e.slotIdx,
		sess: e.sess,
	}
}

// Paths returns the structural path set P_Ω, computed once by a walk
// of the routing DAG over Classes(). Refining classes by control
// prefixes cannot change the set (Before.AllPaths(Scope) walks the
// unrefined classes to the same paths), but walking the engine's own
// classes lets the walk record which classes each path forwards, so
// fecSource needs no second pass over the paths.
func (e *Engine) Paths() []topo.Path {
	if e.paths == nil {
		e.paths, e.pathFwd = e.Before.WalkPaths(e.Scope, e.Classes())
	}
	return e.paths
}

// controlPrefixes collects the prefixes named in control intents so
// traffic classes are atomized against them (§6: "isolate and open
// related prefixes need to be taken into account").
func (e *Engine) controlPrefixes() []header.Prefix {
	var out []header.Prefix
	for _, c := range e.Controls {
		if !c.Match.Dst.IsAny() {
			out = append(out, c.Match.Dst)
		}
	}
	return out
}

// Classes returns X_Ω, the entering-traffic destination classes.
func (e *Engine) Classes() []header.Prefix {
	if e.classes == nil {
		e.classes = e.Before.EnteringTraffic(e.Scope, e.controlPrefixes()...)
	}
	return e.classes
}

// FECs returns the forwarding equivalence classes of the entering
// traffic.
func (e *Engine) FECs() []topo.FEC {
	if e.fecs == nil {
		e.fecs = e.fecSource().FECs()
		if !e.sharded() && e.Opts.Verdicts != nil {
			// Derive the binding slot index alongside the FEC structure it
			// mirrors: both are fixed for the engine's lifetime, and doing
			// it here keeps the first cache-addressed check — notably the
			// first check after a snapshot restore — off the hook.
			e.fecSlotIndex()
		}
	}
	return e.fecs
}

// sharded reports whether Check streams through FEC shards.
func (e *Engine) sharded() bool { return e.Opts.Shards > 1 }

// fecSource returns the FEC index, built once from the path walk's
// per-path class sets, which it then releases. It stores only index
// vectors; FECs() materializes every FEC from it, and sharded checks
// materialize one shard at a time.
func (e *Engine) fecSource() *topo.FECSource {
	if e.fecSrc == nil {
		e.fecSrc = topo.NewFECSource(e.Paths(), e.Classes(), e.pathFwd)
		e.pathFwd = nil
	}
	return e.fecSrc
}

// NumFECs returns the number of forwarding equivalence classes without
// forcing a full materialization in sharded mode.
func (e *Engine) NumFECs() int {
	if e.fecs != nil {
		return len(e.fecs)
	}
	if e.sharded() || e.fecSrc != nil {
		return e.fecSource().NumFECs()
	}
	return len(e.FECs())
}

// SessionWarm reports whether the engine currently holds warm solver
// state (an encoder and persistent solvers from a previous Check). A
// host can use it to decide whether ReleaseSession would reclaim
// anything.
func (e *Engine) SessionWarm() bool { return e.sess != nil }

// bindingACL returns the ACL bound at the binding's position in the given
// network (nil when unbound there).
func bindingACL(n *topo.Network, b topo.ACLBinding) *acl.ACL {
	i, err := n.LookupInterface(b.Iface.ID())
	if err != nil {
		return nil
	}
	return i.ACL(b.Dir)
}

// aclPair is the before/after ACLs at one binding.
type aclPair struct {
	binding topo.ACLBinding
	before  *acl.ACL // nil = permit all
	after   *acl.ACL
}

// scopeACLPairs collects the before/after ACL pair at every binding that
// carries an ACL in either snapshot.
func (e *Engine) scopeACLPairs() []aclPair {
	seen := map[string]bool{}
	var out []aclPair
	collect := func(n *topo.Network) {
		for _, b := range n.ACLGroup(e.Scope) {
			id := b.ID()
			if seen[id] {
				continue
			}
			seen[id] = true
			out = append(out, aclPair{
				binding: b,
				before:  bindingACL(e.Before, b),
				after:   bindingACL(e.After, b),
			})
		}
	}
	collect(e.Before)
	collect(e.After)
	return out
}

// orPermitAll treats a nil ACL as permit-all for diffing and encoding.
func orPermitAll(a *acl.ACL) *acl.ACL {
	if a == nil {
		return acl.PermitAll()
	}
	return a
}

// encoder caches ACL circuit encodings over a shared builder and
// symbolic packet. The cache is two-level: a pointer fast path, backed
// by a canonical structural-fingerprint index so ACLs that are equal
// rule-for-rule but reached through different pointers — the cloned but
// unchanged bindings of an update, or one ACL template stamped across
// many interfaces — are encoded exactly once. Fingerprint collisions
// are resolved with acl.Equal. Cache effectiveness is observable
// through the encoder.cache.{hits,misses} counters (nil counters when
// metrics are off).
type encoder struct {
	b          *smt.Builder
	pv         *smt.PacketVars
	tournament bool
	byPtr      map[*acl.ACL]smt.F
	byFP       map[uint64][]fpEntry
	hits       *obs.Counter
	misses     *obs.Counter
}

// fpEntry is one fingerprint bucket member: a representative ACL (for
// the Equal collision check) and its encoding.
type fpEntry struct {
	a *acl.ACL
	f smt.F
}

func newEncoder(tournament bool, o *obs.Observer) *encoder {
	b := smt.NewBuilder()
	return &encoder{
		b: b, pv: b.NewPacketVars(), tournament: tournament,
		byPtr:  make(map[*acl.ACL]smt.F),
		byFP:   make(map[uint64][]fpEntry),
		hits:   o.Counter("encoder.cache.hits"),
		misses: o.Counter("encoder.cache.misses"),
	}
}

// encodeACL returns the decision-model circuit f_ξ for a (possibly nil)
// ACL.
func (enc *encoder) encodeACL(a *acl.ACL) smt.F {
	if a == nil {
		return smt.True
	}
	if f, ok := enc.byPtr[a]; ok {
		enc.hits.Inc()
		return f
	}
	fp := a.Fingerprint()
	for _, e := range enc.byFP[fp] {
		if e.a.Equal(a) {
			enc.hits.Inc()
			enc.byPtr[a] = e.f
			return e.f
		}
	}
	enc.misses.Inc()
	var f smt.F
	if enc.tournament {
		f = a.EncodeTournament(enc.b, enc.pv)
	} else {
		f = a.EncodeSeq(enc.b, enc.pv)
	}
	enc.byPtr[a] = f
	enc.byFP[fp] = append(enc.byFP[fp], fpEntry{a: a, f: f})
	return f
}

// classPred builds ψ for a set of destination classes: the packet's
// destination lies in one of them.
func (enc *encoder) classPred(classes []header.Prefix) smt.F {
	out := smt.False
	for _, c := range classes {
		out = enc.b.Or(out, enc.b.MatchPred(enc.pv, header.DstMatch(c)))
	}
	return out
}

// Timings records per-phase wall-clock durations for the experiment
// harness. It is a derived view of the tracer spans (each phase span
// accumulates its duration here as it ends), kept so existing
// experiment code and logs need no observer.
type Timings map[string]time.Duration

// timingsMu serializes Timings writes. Phase helpers normally run on
// the primitive's goroutine, but nested spans (a verify check inside a
// parallel fix, observers shared across engines) can end phases from
// different goroutines; a single global mutex keeps the map type — and
// with it the public API — unchanged.
var timingsMu sync.Mutex

func (t Timings) add(phase string, d time.Duration) {
	timingsMu.Lock()
	t[phase] += d
	timingsMu.Unlock()
}

// String renders timings compactly with sorted phase keys, so
// experiment logs are stable across runs.
func (t Timings) String() string {
	keys := make([]string, 0, len(t))
	for k := range t {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("%s=%v", k, t[k])
	}
	return out
}
