package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"jinjing/internal/acl"
	"jinjing/internal/header"
	"jinjing/internal/obs"
	"jinjing/internal/sat"
	"jinjing/internal/smt"
	"jinjing/internal/topo"
)

// This file is the incremental-verification subsystem: a cross-engine
// FEC verdict cache, the change-impact analysis that decides which FECs
// an edit can reach, and the glue that lets check replay cached
// verdicts (and memoized counterexamples) byte-identically to a cold
// run. The design is content-addressed: a FEC's verdict is a pure
// function of the encoded before/after ACL contents along its paths
// (plus the engine's controls and encoding mode, which bind the cache),
// so "invalidation" is simply a changed key — repair iterations and
// operator edits miss only on the FECs they actually touch.

// fecState classifies one FEC within a check generation (one After
// snapshot). States are resolved lazily in FEC order and memoized on
// the generation's context.
type fecState uint8

const (
	// fecUnresolved: not yet examined this generation.
	fecUnresolved fecState = iota
	// fecSkipped: the Theorem 4.1 differential fast path — no diff rule
	// overlaps the FEC. Depends on the global diff, so it is never
	// cached across generations.
	fecSkipped
	// fecDischarged: provably consistent without a solver verdict (the
	// SAT-free pre-filter, or a structurally-False violation formula).
	fecDischarged
	// fecPending: an encoded query awaiting a solver verdict.
	fecPending
	// fecOK: the query was UNSAT — decided now, in an earlier call, or
	// replayed from the verdict cache.
	fecOK
	// fecViolating: the query was SAT.
	fecViolating
	// fecUnknown: the query reached no verdict this call — its budget
	// survived every retry or the call was cancelled. Never cached (the
	// FEC's entry stays nil, so commitGeneration publishes nothing for
	// it) and retried from scratch by the next call on this generation.
	fecUnknown
)

// CacheStats reports the incremental-verification activity of one
// primitive call: verdict-cache traffic, SAT-free pre-filter
// discharges, and the change-impact analysis of the generation
// (bindings whose encoded ACL pair changed since the cache's previous
// generation, and the FECs reachable from them through the dependency
// index). Counts are per-call deltas except ChangedBindings and
// AffectedFECs, which describe the generation itself.
type CacheStats struct {
	FECCacheHits        int64
	FECCacheMisses      int64
	PrefilterDischarged int64
	ChangedBindings     int
	AffectedFECs        int

	// Backend-selection activity: FECs the packet-set backend decided,
	// FECs it abandoned mid-solve on a cube-budget bail-out, and FECs
	// handed to the solver (whether selected for it or bailed out to it).
	PsetDecided int64
	PsetBailout int64
	SatSelected int64
}

// add folds another primitive's stats in (fix aggregates its own
// consults plus its verification check's).
func (s *CacheStats) add(t CacheStats) {
	s.FECCacheHits += t.FECCacheHits
	s.FECCacheMisses += t.FECCacheMisses
	s.PrefilterDischarged += t.PrefilterDischarged
	s.ChangedBindings += t.ChangedBindings
	s.AffectedFECs += t.AffectedFECs
	s.PsetDecided += t.PsetDecided
	s.PsetBailout += t.PsetBailout
	s.SatSelected += t.SatSelected
}

// since returns the per-call delta against a baseline snapshot,
// carrying the generation-scoped impact numbers through unchanged.
func (s CacheStats) since(base CacheStats) CacheStats {
	return CacheStats{
		FECCacheHits:        s.FECCacheHits - base.FECCacheHits,
		FECCacheMisses:      s.FECCacheMisses - base.FECCacheMisses,
		PrefilterDischarged: s.PrefilterDischarged - base.PrefilterDischarged,
		ChangedBindings:     s.ChangedBindings,
		AffectedFECs:        s.AffectedFECs,
		PsetDecided:         s.PsetDecided - base.PsetDecided,
		PsetBailout:         s.PsetBailout - base.PsetBailout,
		SatSelected:         s.SatSelected - base.SatSelected,
	}
}

// recordCacheStats mirrors one call's deltas into the metrics registry.
func recordCacheStats(o *obs.Observer, s CacheStats) {
	o.Counter("fec.cache.hits").Add(s.FECCacheHits)
	o.Counter("fec.cache.misses").Add(s.FECCacheMisses)
	o.Counter("prefilter.discharged").Add(s.PrefilterDischarged)
	o.Counter("backend.pset.selected").Add(s.PsetDecided)
	o.Counter("backend.sat.selected").Add(s.SatSelected)
	o.Counter("backend.bailout").Add(s.PsetBailout)
}

// fecVerdict is one cached verdict: the FEC's content key, whether its
// Equation-3 query needed a solver verdict (hadJob) and how it came out
// (violating), plus the lazily memoized canonical counterexample for
// violating entries. witPkt is a witness packet restored from a
// snapshot but not yet validated: witnessFor replays it only after
// re-deriving the flipped-path set concretely (and drops it if the
// packet is not a genuine counterexample), so stored bytes are never
// trusted for correctness. Entries are immutable except wit/witPkt,
// which are updated under the cache mutex.
type fecVerdict struct {
	key       []uint64
	hadJob    bool
	violating bool
	wit       *Violation
	witPkt    *header.Packet
}

// VerdictCache caches per-FEC check verdicts across engines and After
// snapshots. It binds to a configuration — the Before network, the
// scope, the controls, and the encoding mode — on first use and resets
// itself whenever a differently-configured engine touches it, so a
// stale cache can never leak verdicts across incompatible
// configurations. Within one configuration, entries are keyed by the
// ordered tuple of encoded before/after ACL fingerprints along each
// FEC's paths: any edit (an operator's update, a fix iteration's
// repair rule) changes the keys of exactly the FECs it can affect, and
// every other FEC replays its cached verdict. Safe for concurrent use.
type VerdictCache struct {
	mu     sync.Mutex
	bound  bool
	before *topo.Network
	scope  *topo.Scope
	cfg    string

	// byFEC indexes entries per FEC by key hash, with a full-key
	// comparison resolving hash collisions.
	byFEC []map[uint64][]*fecVerdict

	// lastPairs/lastGen snapshot the previous generation — the encoded
	// pair fingerprints and the per-FEC entries of the last committed
	// check — powering the change-impact fast path: an unaffected FEC
	// replays its previous entry without even hashing its key.
	lastPairs map[string][2]uint64
	lastGen   []*fecVerdict

	// pairTab/pairIdx intern the (before, after) ACL fingerprint pairs
	// that key words reference: a key holds one word per binding slot,
	// 0 for an unbound slot or w for pairTab[w-1]. The table is append-
	// only for the cache's lifetime (bind resets drop entries, never
	// references), so equal refs always mean equal pairs and equal keys
	// mean equal fingerprint tuples — at a third of the words the
	// inline-pair form took.
	pairTab [][2]uint64
	pairIdx map[[2]uint64]uint64
}

// NewVerdictCache returns an empty cache. Share one across the engines
// of an interactive session (Run installs one automatically) to make
// re-checks after edits incremental.
func NewVerdictCache() *VerdictCache { return &VerdictCache{} }

// cacheConfig digests the engine state a cached verdict depends on
// beyond the FEC content key: the encoding mode and the control
// intents. (UseDifferential is deliberately absent — the key holds
// fingerprints of the ACLs as encoded, related-filtered or not, so
// equal keys mean equal formulas either way. Backend is absent for the
// same reason: both backends decide the same query, so a verdict is
// backend-agnostic and survives a backend switch. Workers and
// FindAllViolations cannot change any verdict.)
func (e *Engine) cacheConfig() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tournament=%v", e.Opts.UseTournament)
	for _, c := range e.Controls {
		fmt.Fprintf(&b, ";%v %v from=%s to=%s", c.Mode, c.Match,
			sortedIDs(c.From), sortedIDs(c.To))
	}
	return b.String()
}

func sortedIDs(m map[string]bool) string {
	ids := make([]string, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return strings.Join(ids, ",")
}

// bind points the cache at the engine's configuration, dropping all
// entries when it differs from the bound one (a new Before snapshot, a
// changed scope or control set, or a changed Options encoding mode).
func (vc *VerdictCache) bind(e *Engine, nfec int) {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	cfg := e.cacheConfig()
	if vc.bound && vc.before == e.Before && vc.scope == e.Scope && vc.cfg == cfg && len(vc.byFEC) == nfec {
		return
	}
	vc.bound = true
	vc.before, vc.scope, vc.cfg = e.Before, e.Scope, cfg
	vc.byFEC = make([]map[uint64][]*fecVerdict, nfec)
	vc.lastPairs, vc.lastGen = nil, nil
}

// internPairLocked returns the stable key reference (table index + 1)
// for a fingerprint pair, assigning the next index on first sight.
// Caller holds vc.mu.
func (vc *VerdictCache) internPairLocked(pair [2]uint64) uint64 {
	if ref, ok := vc.pairIdx[pair]; ok {
		return ref
	}
	if vc.pairIdx == nil {
		vc.pairIdx = map[[2]uint64]uint64{}
	}
	vc.pairTab = append(vc.pairTab, pair)
	ref := uint64(len(vc.pairTab))
	vc.pairIdx[pair] = ref
	return ref
}

// hashKey is FNV-1a over the key words.
func hashKey(key []uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, w := range key {
		h ^= w
		h *= prime64
	}
	return h
}

func equalKey(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// lookup returns the entry for FEC i under the given key, or nil.
func (vc *VerdictCache) lookup(i int, key []uint64) *fecVerdict {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	if i >= len(vc.byFEC) || vc.byFEC[i] == nil {
		return nil
	}
	for _, ent := range vc.byFEC[i][hashKey(key)] {
		if equalKey(ent.key, key) {
			return ent
		}
	}
	return nil
}

// insert stores an entry for FEC i (no-op on a duplicate key: the first
// stored verdict for a content key is as good as any later one).
func (vc *VerdictCache) insert(i int, ent *fecVerdict) {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	vc.insertLocked(i, ent)
}

// insertLocked is insert with vc.mu already held (Import shares it).
func (vc *VerdictCache) insertLocked(i int, ent *fecVerdict) {
	if i >= len(vc.byFEC) {
		return
	}
	m := vc.byFEC[i]
	if m == nil {
		m = make(map[uint64][]*fecVerdict)
		vc.byFEC[i] = m
	}
	h := hashKey(ent.key)
	for _, old := range m[h] {
		if equalKey(old.key, ent.key) {
			return
		}
	}
	m[h] = append(m[h], ent)
}

// Size reports how many per-FEC verdicts the cache currently holds
// across all content keys — the warm-state figure a session host (the
// jinjingd daemon) surfaces in its status endpoints. 0 for an unbound
// or freshly reset cache.
func (vc *VerdictCache) Size() int {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	n := 0
	for _, m := range vc.byFEC {
		for _, ents := range m {
			n += len(ents)
		}
	}
	return n
}

// witness returns the entry's memoized counterexample (nil when not yet
// computed).
func (vc *VerdictCache) witness(ent *fecVerdict) *Violation {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	return ent.wit
}

// memoWitness backfills the entry's counterexample, keeping the first.
func (vc *VerdictCache) memoWitness(ent *fecVerdict, v *Violation) {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	if ent.wit == nil {
		ent.wit = v
	}
}

// witnessPacket returns the entry's restored-but-unvalidated witness
// packet (nil when none), cleared once a memoized witness exists.
func (vc *VerdictCache) witnessPacket(ent *fecVerdict) *header.Packet {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	if ent.wit != nil {
		return nil
	}
	return ent.witPkt
}

// dropWitnessPacket discards a restored witness packet that failed
// concrete validation, so later calls go straight to re-derivation.
func (vc *VerdictCache) dropWitnessPacket(ent *fecVerdict) {
	vc.mu.Lock()
	defer vc.mu.Unlock()
	ent.witPkt = nil
}

// depIndex maps each binding ID to the (deduplicated, ascending) FEC
// indices whose paths traverse it — the dependency index of the
// change-impact analysis. Built once per engine and shared with
// derived verification engines.
func (e *Engine) depIndex() map[string][]int {
	if e.depIdx == nil {
		idx := map[string][]int{}
		add := func(i int, paths []topo.Path) {
			seen := map[string]bool{}
			for _, p := range paths {
				for _, b := range p.Bindings() {
					id := b.ID()
					if !seen[id] {
						seen[id] = true
						idx[id] = append(idx[id], i)
					}
				}
			}
		}
		if e.sharded() {
			// Stream over the index vectors: no FEC materialization.
			src := e.fecSource()
			for i := 0; i < src.NumFECs(); i++ {
				add(i, src.Paths(i))
			}
		} else {
			for i, fec := range e.FECs() {
				add(i, fec.Paths)
			}
		}
		e.depIdx = idx
	}
	return e.depIdx
}

// prepareIncremental sizes the generation's per-FEC resolution state,
// binds the verdict cache, and runs the change-impact analysis against
// the cache's previous generation. Idempotent per context.
func (e *Engine) prepareIncremental(ctx *checkCtx) {
	if ctx.incReady {
		return
	}
	ctx.incReady = true
	if ctx.fecs == nil && ctx.src == nil {
		if e.sharded() {
			ctx.src = e.fecSource()
			ctx.nfec = ctx.src.NumFECs()
		} else {
			ctx.fecs = e.FECs()
			ctx.nfec = len(ctx.fecs)
		}
	}
	n := ctx.nfec
	ctx.states = make([]fecState, n)
	ctx.entries = make([]*fecVerdict, n)
	ctx.unknownReason = make([]string, n)
	ctx.routes = make([]fecRoute, n)
	ctx.solveNS = make([]int64, n)
	ctx.jobOf = make([]int32, n)
	for i := range ctx.jobOf {
		ctx.jobOf[i] = -1
	}
	ctx.wit = make(map[int]*Violation)
	vc := e.Opts.Verdicts
	if vc == nil || ctx.fastPath {
		// fastPath generations (an empty differential) never consult or
		// commit the cache — fix reaches here only to size the states.
		return
	}
	vc.bind(e, n)
	ctx.vc = vc

	// Resolve this generation's pair fingerprints to their stable cache
	// references in one locked batch (a few hundred pairs, not one lock
	// per slot), then project the references onto the interned binding
	// slots so fecKey derives keys by slice indexing instead of per-slot
	// string building and map hashing.
	vc.mu.Lock()
	ctx.pairRefs = make(map[string]uint64, len(ctx.pairFPs))
	for id, fp := range ctx.pairFPs {
		ctx.pairRefs[id] = vc.internPairLocked(fp)
	}
	vc.mu.Unlock()
	if si := e.fecSlotIndex(); si != nil {
		ctx.slots = si.slots
		ctx.fpRef = make([]uint64, si.n)
		for id, ref := range ctx.pairRefs {
			if j, ok := si.ids[id]; ok {
				ctx.fpRef[j] = ref
			}
		}
		// Size one shared arena for every FEC's key (one word per slot,
		// fixed for the generation): per-FEC key allocations otherwise
		// dominate a fully-cached check.
		off := make([]int, n+1)
		for i, sl := range ctx.slots {
			off[i+1] = off[i] + len(sl)
		}
		ctx.keyOff = off
		ctx.keyArena = make([]uint64, off[n])
	}

	vc.mu.Lock()
	lastPairs, lastGen := vc.lastPairs, vc.lastGen
	vc.mu.Unlock()
	if lastPairs == nil {
		return
	}
	// Change-impact analysis: a binding changed when its encoded pair
	// fingerprints differ from the previous generation's (including
	// bindings present in only one of the two); the affected FECs are
	// those reachable from a changed binding through the dependency
	// index. Everything else replays its previous entry directly.
	changed := map[string]bool{}
	for id, fp := range ctx.pairFPs {
		if old, ok := lastPairs[id]; !ok || old != fp {
			changed[id] = true
		}
	}
	for id := range lastPairs {
		if _, ok := ctx.pairFPs[id]; !ok {
			changed[id] = true
		}
	}
	ctx.stats.ChangedBindings = len(changed)
	dep := e.depIndex()
	ctx.affected = make([]bool, n)
	naff := 0
	for id := range changed {
		for _, i := range dep[id] {
			if !ctx.affected[i] {
				ctx.affected[i] = true
				naff++
			}
		}
	}
	ctx.stats.AffectedFECs = naff
	ctx.lastGen = lastGen
}

// slotIndex interns fecKey's binding slots: ids assigns every on-path
// binding ID a dense index, and slots[i] lists FEC i's key slots (in
// fecKey's path order) as indices into ids. Before-derived and
// immutable once built, so it is shared across generations and with
// derived verification engines.
type slotIndex struct {
	ids   map[string]int32
	n     int32
	slots [][]int32
}

// fecSlotIndex builds (once) the engine's binding-slot interning, or
// returns nil when the FEC set is not materialized (sharded streaming),
// in which case fecKey falls back to per-slot string lookups. Called
// only from the single-goroutine resolve setup (prepareIncremental),
// like depIndex.
func (e *Engine) fecSlotIndex() *slotIndex {
	if e.slotIdx != nil {
		return e.slotIdx
	}
	if e.sharded() {
		return nil
	}
	fecs := e.FECs()
	si := &slotIndex{ids: map[string]int32{}, slots: make([][]int32, len(fecs))}
	// Intern by binding identity (interface pointer + direction) so the
	// ID string is built once per unique binding, not once per slot —
	// paths share *Interface values, and building per-slot ID strings
	// would cost as much as the string-keyed fecKey this index replaces.
	byBind := map[topo.ACLBinding]int32{}
	for i, fec := range fecs {
		var sl []int32
		for _, p := range fec.Paths {
			for _, h := range p.Hops {
				for _, b := range [2]topo.ACLBinding{{Iface: h.In, Dir: topo.In}, {Iface: h.Out, Dir: topo.Out}} {
					j, ok := byBind[b]
					if !ok {
						j = si.n
						byBind[b] = j
						si.ids[b.ID()] = j
						si.n++
					}
					sl = append(sl, j)
				}
			}
		}
		si.slots[i] = sl
	}
	e.slotIdx = si
	return si
}

// fecKey is the FEC's content address: one word per binding slot along
// its paths — 0 for an unbound slot, or the cache's stable reference
// for the slot's encoded (before, after) ACL fingerprint pair (see
// internPairLocked; the slot structure is fixed by the FEC's
// Before-derived paths). Equal keys mean the check pipeline encodes
// identical formulas for this FEC — same verdict, same canonical
// counterexample.
func (ctx *checkCtx) fecKey(i int, fec topo.FEC) []uint64 {
	if ctx.slots != nil {
		// Fill FEC i's region of the generation's shared key arena. The
		// region is written only by the goroutine resolving FEC i (the
		// same per-FEC ownership discipline as ctx.states[i]); repeated
		// calls rewrite identical content. Callers that retain the key
		// beyond the generation (cache inserts) must copy it — see
		// ownKey — or the whole arena stays reachable.
		sl := ctx.slots[i]
		lo, hi := ctx.keyOff[i], ctx.keyOff[i+1]
		key := ctx.keyArena[lo:lo:hi]
		for _, s := range sl {
			key = append(key, ctx.fpRef[s])
		}
		return key
	}
	var key []uint64
	for _, p := range fec.Paths {
		for _, b := range p.Bindings() {
			// Missing bindings read as 0: unbound slot.
			key = append(key, ctx.pairRefs[b.ID()])
		}
	}
	return key
}

// pairTrivialID reports (and memoizes) whether the binding's encoded
// before/after pair is trivially equivalent per the SAT-free
// pre-filter. Safe for concurrent use (fix workers share the memo).
func (ctx *checkCtx) pairTrivialID(id string) bool {
	ctx.trivMu.Lock()
	if v, ok := ctx.pairTriv[id]; ok {
		ctx.trivMu.Unlock()
		return v
	}
	ctx.trivMu.Unlock()
	res := true
	if pr, ok := ctx.encodeACLs[id]; ok {
		res = trivialPair(pr[0], pr[1], ctx.pairFPs[id])
		if !res {
			// Exact set-algebra leg, sharing the pset backend's
			// differential-bound construction (and its memo): the pair is
			// equivalent iff its permitted sets coincide within the
			// differential-rule bound.
			res = ctx.pairExactEqual(id)
		}
	}
	ctx.trivMu.Lock()
	ctx.pairTriv[id] = res
	ctx.trivMu.Unlock()
	return res
}

// trivialPair layers the pre-filter's syntactic legs cheapest-first:
// fingerprint plus structural equality (the common cloned-but-unchanged
// case), then normalization (acl.TriviallyEquivalent: interval
// subsumption and canonical reordering). The exact set-algebra leg
// lives in pairTrivialID, where its ACL→Set construction is shared with
// the pset backend. Sound: true guarantees decision-model equivalence.
func trivialPair(before, after *acl.ACL, fps [2]uint64) bool {
	if before == after {
		return true
	}
	if fps[0] == fps[1] && before.Equal(after) {
		return true
	}
	return acl.TriviallyEquivalent(before, after)
}

// fecPrefiltered reports whether the SAT-free pre-filter discharges the
// FEC: no control intent governs any of its paths, and every encoded
// before/after pair along them is trivially equivalent — so desired and
// after decisions agree on every packet without building a formula.
func (e *Engine) fecPrefiltered(ctx *checkCtx, fec topo.FEC) bool {
	for _, p := range fec.Paths {
		for _, c := range e.Controls {
			if c.AppliesTo(p) {
				return false
			}
		}
		for _, b := range p.Bindings() {
			if !ctx.pairTrivialID(b.ID()) {
				return false
			}
		}
	}
	return true
}

// resolveFEC classifies FEC i for this generation: the differential
// skip first (never cached — it depends on the global diff), then the
// change-impact replay and the verdict cache, then the SAT-free
// pre-filter, and only then formula construction. Must be called from
// one goroutine at a time (the solve phases resolve before fanning
// out); the resulting state is memoized.
func (e *Engine) resolveFEC(ctx *checkCtx, i int) fecState {
	if st := ctx.states[i]; st != fecUnresolved {
		if st != fecUnknown {
			return st
		}
		// An earlier interrupted or budget-exhausted call left no
		// verdict: this call retries. The encoded job (if any) is still
		// valid — re-arm it as pending; otherwise resolve from scratch.
		ctx.unknownReason[i] = ""
		if ctx.jobOf[i] >= 0 {
			ctx.states[i] = fecPending
			return fecPending
		}
		ctx.states[i] = fecUnresolved
	}
	fec := ctx.fec(i)
	if e.Opts.UseDifferential && !e.fecTouchesDiff(fec, ctx.diff) {
		ctx.states[i] = fecSkipped
		ctx.routes[i] = routeSkip
		return fecSkipped
	}
	var key []uint64
	if ctx.vc != nil {
		if ctx.affected != nil && !ctx.affected[i] && ctx.lastGen != nil && i < len(ctx.lastGen) && ctx.lastGen[i] != nil {
			return ctx.adopt(i, ctx.lastGen[i], routeImpact)
		}
		key = ctx.fecKey(i, fec)
		if ent := ctx.vc.lookup(i, key); ent != nil {
			return ctx.adopt(i, ent, routeCache)
		}
		ctx.stats.FECCacheMisses++
	}
	if e.fecPrefiltered(ctx, fec) {
		ctx.stats.PrefilterDischarged++
		ctx.discharge(i, key)
		ctx.routes[i] = routePrefilter
		return fecDischarged
	}
	// Backend selection happens after the pre-filter discharge above, so
	// the set of FECs that need a complete decision procedure — and with
	// it SolvedFECs and every reported count — is identical whichever
	// backend answers. The pset backend decides the query in the set
	// algebra and skips formula construction, clausification, and CDCL
	// search entirely; a cube-budget bail-out falls through to a solver
	// job. (No backend consults the builder before this point: a formula-
	// level discharge would force every FEC through formula construction
	// and, being a property of encoder simplifications, could not be
	// replicated exactly by the algebra — the solver disposes of the
	// structurally-false queries the pre-filter misses just as cheaply.)
	if e.backendForFEC(ctx, fec) == BackendPset {
		fsp := ctx.resolveSpan.Child("fec.solve", obs.KV("fec", i), obs.KV("backend", "pset"))
		start := time.Now()
		violating, ok := e.psetDecideFEC(ctx, fec)
		ns := time.Since(start).Nanoseconds()
		ctx.solveNS[i] += ns
		if ok {
			// The solver path feeds the {backend=sat} twin, so the two
			// counts sum to a cold run's SolvedFECs whichever backend
			// answers.
			e.obsv().Histogram("fec.solve.ns{backend=pset}").Observe(ns)
			ctx.stats.PsetDecided++
			ctx.routes[i] = routePset
			ctx.finishVerdict(i, key, violating)
			fsp.SetAttr("verdict", verdictString(ctx.states[i]))
			fsp.End()
			return ctx.states[i]
		}
		ctx.stats.PsetBailout++
		ctx.routes[i] = routeSATBail
		fsp.SetAttr("bailout", true)
		fsp.End()
	}
	ctx.stats.SatSelected++
	if ctx.routes[i] == routeNone {
		ctx.routes[i] = routeSAT
	}
	enc := ctx.enc()
	viol := e.fecViolationFormula(enc, fec, ctx.encodeACLs)
	ctx.jobOf[i] = int32(len(ctx.jobs))
	ctx.jobs = append(ctx.jobs, checkJob{
		fecIdx: i,
		query:  enc.b.And(viol, enc.classPred(fec.Classes)),
		key:    key,
	})
	ctx.states[i] = fecPending
	return fecPending
}

// adopt replays a cached entry as FEC i's state for this generation,
// recording the replay route (change-impact or verdict-cache).
func (ctx *checkCtx) adopt(i int, ent *fecVerdict, route fecRoute) fecState {
	ctx.stats.FECCacheHits++
	ctx.entries[i] = ent
	ctx.routes[i] = route
	st := fecDischarged
	if ent.hadJob {
		if ent.violating {
			st = fecViolating
		} else {
			st = fecOK
		}
	}
	ctx.states[i] = st
	return st
}

// ownKey returns a key safe to retain beyond this generation: arena-
// backed keys (see fecKey) are copied so a cached entry doesn't pin the
// whole generation's arena; slow-path keys are per-key allocations
// already and pass through. Only cache-miss inserts pay the copy.
func (ctx *checkCtx) ownKey(key []uint64) []uint64 {
	if ctx.keyArena == nil || len(key) == 0 {
		return key
	}
	return append([]uint64(nil), key...)
}

// discharge records FEC i as provably consistent without a solver
// verdict, caching the outcome under its content key.
func (ctx *checkCtx) discharge(i int, key []uint64) {
	ctx.states[i] = fecDischarged
	if ctx.vc != nil {
		ent := &fecVerdict{key: ctx.ownKey(key), hadJob: false}
		ctx.entries[i] = ent
		ctx.vc.insert(i, ent)
	}
}

// markUnknown records that FEC i's query reached no verdict this call,
// and why. Unlike finishJob it writes no cache entry: entries[i] stays
// nil, so commitGeneration never publishes an Unknown as a verdict and
// the next unrestricted run re-solves the FEC cold. Safe to call
// concurrently for distinct FECs.
func (ctx *checkCtx) markUnknown(i int, reason string) {
	ctx.states[i] = fecUnknown
	ctx.unknownReason[i] = reason
}

// markCancelled marks every FEC in [lo, hi) still awaiting a verdict —
// unresolved or pending — Unknown: the call is dead, so none of them
// can get one.
func (ctx *checkCtx) markCancelled(lo, hi int) {
	for i := lo; i < hi; i++ {
		if st := ctx.states[i]; st == fecUnresolved || st == fecPending {
			ctx.markUnknown(i, reasonCancelled)
		}
	}
}

// finishVerdict records a complete-backend verdict — a solver's or the
// packet-set engine's — for FEC i, caching it under its content key.
// Cached entries are backend-agnostic: hadJob records only that the FEC
// needed a complete decision procedure, so a verdict decided by one
// backend replays identically under any other. Safe to call
// concurrently for distinct FECs.
func (ctx *checkCtx) finishVerdict(i int, key []uint64, violating bool) {
	if violating {
		ctx.states[i] = fecViolating
	} else {
		ctx.states[i] = fecOK
	}
	if ctx.vc != nil {
		ent := &fecVerdict{key: ctx.ownKey(key), hadJob: true, violating: violating}
		ctx.entries[i] = ent
		ctx.vc.insert(i, ent)
	}
}

// finishJob records a solver verdict for one pending job. Safe to call
// concurrently for distinct jobs (each job is decided exactly once).
func (ctx *checkCtx) finishJob(j checkJob, satisfiable bool) {
	ctx.finishVerdict(j.fecIdx, j.key, satisfiable)
}

// solvedFECs counts the FECs in [0, last] whose Equation-3 query needed
// a solver verdict — decided in this or an earlier call, or replayed
// from the verdict cache. A pure function of the resolved states, so
// warm, cold, sequential, and parallel runs all report the number the
// cold sequential scan would have.
func solvedFECs(ctx *checkCtx, last int) int {
	n := 0
	for i := 0; i <= last && i < len(ctx.states); i++ {
		switch ctx.states[i] {
		case fecPending, fecOK, fecViolating:
			n++
		}
	}
	return n
}

// witnessFor returns FEC i's counterexample, replaying the generation
// memo or the cache entry's memoized witness when present and computing
// the canonical witness otherwise. The bool reports a replay.
func (e *Engine) witnessFor(ctx *checkCtx, i int, res *CheckResult, o *obs.Observer) (Violation, bool) {
	if v, ok := ctx.wit[i]; ok {
		return *v, true
	}
	ent := ctx.entries[i]
	if ent != nil && ctx.vc != nil {
		if w := ctx.vc.witness(ent); w != nil {
			ctx.wit[i] = w
			return *w, true
		}
		// A snapshot-restored witness packet replays only after concrete
		// validation: the flipped-path set is re-derived by direct
		// rule-list evaluation, and a packet that flips nothing (damage,
		// tampering) is dropped and the witness re-derived from scratch —
		// stored bytes are never trusted for correctness.
		if pkt := ctx.vc.witnessPacket(ent); pkt != nil {
			if v, ok := e.replayWitness(ctx, i, *pkt); ok {
				w := &v
				ctx.wit[i] = w
				ctx.vc.memoWitness(ent, w)
				return v, true
			}
			ctx.vc.dropWitnessPacket(ent)
		}
	}
	// The set-algebra witness is attempted first for every violating FEC
	// whatever backend decided it — both derivations are pure functions
	// of the FEC and ACL contents, so which one answers is itself
	// backend-independent and the reported bytes stay identical across
	// backends, worker counts, and cache states.
	v, ok := e.psetWitnessFEC(ctx, ctx.fec(i))
	if !ok {
		var st sat.Stats
		v, st = e.witnessFEC(ctx, i)
		recordSolverStats(o, &res.SolverStats, st)
	}
	ctx.wit[i] = &v
	if ent != nil && ctx.vc != nil {
		ctx.vc.memoWitness(ent, &v)
	}
	return v, false
}

// witnessFEC re-solves FEC i's Equation-3 query on a fresh builder and
// solver, yielding the canonical counterexample: a pure function of the
// FEC and the encoded ACL contents, independent of engine history,
// worker count, and cache state — the property that keeps warm replays
// byte-identical to a fresh-engine cold run.
func (e *Engine) witnessFEC(ctx *checkCtx, i int) (Violation, sat.Stats) {
	fec := ctx.fec(i)
	enc := newEncoder(e.Opts.UseTournament, e.obsv())
	viol := e.fecViolationFormula(enc, fec, ctx.encodeACLs)
	query := enc.b.And(viol, enc.classPred(fec.Classes))
	var iffs []smt.F
	for _, p := range fec.Paths {
		d, ap := e.pathFormulas(enc, p, ctx.encodeACLs)
		iffs = append(iffs, enc.b.Iff(d, ap))
	}
	s := smt.SolverOn(enc.b)
	if !s.Solve(query) {
		panic("core: witness solver disagrees with detection verdict")
	}
	v := Violation{Packet: s.Packet(enc.pv), Classes: fec.Classes}
	for pi, p := range fec.Paths {
		if !s.EvalInModel(iffs[pi]) {
			v.Paths = append(v.Paths, p)
		}
	}
	return v, s.Stats()
}

// commitGeneration publishes this generation as the cache's previous
// one: the encoded pair fingerprints plus each FEC's entry — resolved
// this generation, or carried over when the change-impact analysis
// proved the FEC unaffected. Idempotent; the last committing engine
// (an operator check, a fix verification) wins, which is exactly the
// snapshot the next edit diffs against.
func (ctx *checkCtx) commitGeneration() {
	if ctx.vc == nil {
		return
	}
	vc := ctx.vc
	vc.mu.Lock()
	defer vc.mu.Unlock()
	newGen := make([]*fecVerdict, ctx.nfec)
	for i := range newGen {
		switch {
		case ctx.entries[i] != nil:
			newGen[i] = ctx.entries[i]
		case ctx.affected != nil && !ctx.affected[i] && i < len(ctx.lastGen):
			newGen[i] = ctx.lastGen[i]
		}
	}
	vc.lastGen = newGen
	vc.lastPairs = ctx.pairFPs
}
