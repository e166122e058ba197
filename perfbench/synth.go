package main

// synthesize: the §4.2/§5/§6 primitives at the medium tier. Each op is
// one round of the three kinds: Fix of a 5% perturbation with every ACL
// binding allowed (the Fig. 4b setup), Generate for the migration of
// every aggregation ACL to the edge (Fig. 4c), and Generate opening 2
// prefixes per edge device from the backbone (Fig. 4d). Per-neighborhood
// and per-AEC solving plus ACL synthesis and simplification do the work;
// migration leans on synthesis, opening on solving.
//
// All rounds run on the §8 network (buildWAN); the workload seed draws
// the fix updates and the opened prefixes, one of each per round in
// turn.

import (
	"fmt"
	"math/rand"
	"time"

	"jinjing/internal/acl"
	"jinjing/internal/core"
	"jinjing/internal/experiments"
	"jinjing/internal/header"
	"jinjing/internal/netgen"
	"jinjing/internal/topo"
)

const (
	synthDraws   = 3 // fix updates and open intents per seed, used in turn
	fixPct       = 5
	openPerEdge  = 2
	genPathsFEC  = 8 // paths sampled per FEC when checking generated ACLs
	genPerPath   = 3 // packets sampled per sampled path
	kindFix      = "fix"
	kindMigrate  = "generate-migration"
	kindOpen     = "generate-open"
	synthKindNum = 3
)

var synthKinds = [synthKindNum]string{kindFix, kindMigrate, kindOpen}

// synthDraw is one round's three synthesis inputs.
type synthDraw struct {
	w *netgen.WAN
	// fix: a perturbed update, every ACL binding allowed.
	fixAfter *topo.Network
	allow    []topo.ACLBinding
	// migration: aggregation ACLs cleared, edge bindings as targets.
	migAfter            *topo.Network
	migSources, migTgts []topo.ACLBinding
	// open: controls opening prefixes, core+agg bindings regenerated.
	openCtrls []core.Control
	opens     []openIntent
	openSrcs  []topo.ACLBinding

	// Reference data, built outside the timed phase.
	before, fixAfterIdx aclIndex
	fixWitnesses        []witness
}

func synthSetup(seed int64) ([]*synthDraw, error) {
	var out []*synthDraw
	w := buildWAN(0)
	for k := 0; k < synthDraws; k++ {
		s := &synthDraw{w: w, fixAfter: w.Perturb(subSeed(seed, 3, k), fixPct)}
		var err error
		if s.allow, err = netgen.Bindings(w.Net, aclBindingIDs(w)); err != nil {
			return nil, err
		}

		s.migAfter = w.Net.Clone()
		cleared, err := netgen.Bindings(s.migAfter, w.AggACLs)
		if err != nil {
			return nil, err
		}
		for _, b := range cleared {
			b.Iface.SetACL(b.Dir, nil)
		}
		if s.migSources, err = netgen.Bindings(w.Net, w.AggACLs); err != nil {
			return nil, err
		}
		if s.migTgts, err = netgen.Bindings(w.Net, w.EdgeACLs); err != nil {
			return nil, err
		}

		from, to := map[string]bool{}, map[string]bool{}
		for _, cn := range w.CoreNames {
			from[cn+":up"] = true
		}
		for _, en := range w.EdgeNames {
			to[en+":ext"] = true
		}
		for _, p := range w.OpenSelections(subSeed(seed, 4, k), openPerEdge) {
			s.openCtrls = append(s.openCtrls, core.Control{From: from, To: to, Mode: core.Open, Match: header.DstMatch(p)})
			s.opens = append(s.opens, openIntent{dst: p, from: from, to: to})
		}
		srcIDs := append(append([]string{}, w.CoreACLs...), w.AggACLs...)
		if s.openSrcs, err = netgen.Bindings(w.Net, srcIDs); err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// prepareReference builds a WAN's reference data: ACL indexes and the
// witnesses of the fix update, taken from a check and themselves
// replayed before any fix is judged by them.
func (s *synthDraw) prepareReference() error {
	s.before = indexACLs(s.w.Net)
	s.fixAfterIdx = indexACLs(s.fixAfter)
	opts := core.DefaultOptions()
	opts.FindAllViolations = true
	opts.Workers = workers
	res := core.New(s.w.Net, s.fixAfter, s.w.Scope, opts).Check()
	if err := validateCheck(res, s.before, s.fixAfterIdx); err != nil {
		return fmt.Errorf("reference check: %v", err)
	}
	if res.Consistent {
		return fmt.Errorf("reference check: the %d%% update has no violation to fix", fixPct)
	}
	for _, v := range res.Violations {
		s.fixWitnesses = append(s.fixWitnesses, witnessOf(v.Packet, v.Classes, v.Paths))
	}
	return nil
}

func synthOptions() core.Options {
	opts := core.DefaultOptions()
	opts.Workers = workers
	return opts
}

// synthOutcome is one synthesis operation's result.
type synthOutcome struct {
	elapsed time.Duration
	answer  string
	fix     *core.FixResult
	gen     *core.GenerateResult
	engine  *core.Engine
	counts  map[string]float64
}

// synthOp runs one operation of the given kind on s, recording spans
// on t when t is non-nil (traced operations derive paths, and for fix
// FECs, explicitly first; both are memoized).
func synthOp(s *synthDraw, kind string, t *tracer, op int) (*synthOutcome, error) {
	t0 := time.Now()
	root := t.begin("op", -1, op)
	var e *core.Engine
	switch kind {
	case kindFix:
		e = core.New(s.w.Net, s.fixAfter, s.w.Scope, synthOptions())
		e.Allow = s.allow
	case kindMigrate:
		e = core.New(s.w.Net, s.migAfter, s.w.Scope, synthOptions())
		e.Allow = s.migTgts
	case kindOpen:
		e = core.New(s.w.Net, s.w.Net.Clone(), s.w.Scope, synthOptions())
		e.Allow = s.openSrcs
		e.Controls = s.openCtrls
	}
	if t != nil {
		sp := t.begin("topo.paths", root, op)
		e.Paths()
		t.end(sp)
		if kind == kindFix {
			sp = t.begin("core.fecs", root, op)
			e.FECs()
			t.end(sp)
		}
	}
	out := &synthOutcome{engine: e}
	var err error
	var call int
	if kind == kindFix {
		call = t.begin("fix", root, op)
		out.fix, err = e.Fix()
		t.end(call)
	} else {
		srcs := s.migSources
		if kind == kindOpen {
			srcs = s.openSrcs
		}
		call = t.begin("generate", root, op)
		out.gen, err = e.Generate(srcs)
		t.end(call)
	}
	t.end(root)
	out.elapsed = time.Since(t0)
	if err != nil {
		return nil, err
	}
	if kind == kindFix {
		tm := out.fix.Timings
		t.phases(call, op, []string{"fix.preprocess", "fix.solve", "fix.simplify", "fix.verify"},
			[]time.Duration{tm["preprocess"], tm["solve"], tm["simplify"], tm["verify"]})
		out.answer = fmt.Sprintf("actions=%d neighborhoods=%d", len(out.fix.Actions), len(out.fix.Neighborhoods))
		out.counts = map[string]float64{
			"fix.actions":       float64(len(out.fix.Actions)),
			"fix.neighborhoods": float64(len(out.fix.Neighborhoods)),
			"sat.conflicts":     float64(out.fix.SolverStats.Conflicts),
			"sat.propagations":  float64(out.fix.SolverStats.Propagations),
			"pset.decided":      float64(out.fix.Stats.PsetDecided),
			"pset.bailouts":     float64(out.fix.Stats.PsetBailout),
		}
	} else {
		tm := out.gen.Timings
		t.phases(call, op, []string{"generate.derive_aec", "generate.solve", "generate.synthesize", "generate.verify"},
			[]time.Duration{tm["derive-aec"], tm["solve"], tm["synthesize"], tm["verify"]})
		out.answer = fmt.Sprintf("aecs=%d rules=%d", out.gen.AECs, out.gen.RulesAfterSimplify)
		out.counts = map[string]float64{
			"generate.aecs":    float64(out.gen.AECs),
			"sat.conflicts":    float64(out.gen.SolverStats.Conflicts),
			"sat.propagations": float64(out.gen.SolverStats.Propagations),
		}
		if out.gen.RulesGenerated > 0 {
			out.counts["generate.rules_kept_ratio"] = float64(out.gen.RulesAfterSimplify) / float64(out.gen.RulesGenerated)
		}
	}
	return out, nil
}

// validateSynth judges one outcome by the reference semantics.
func validateSynth(s *synthDraw, kind string, out *synthOutcome, rng *rand.Rand) error {
	if kind == kindFix {
		f := out.fix
		if !f.Verified || len(f.Unfixable) > 0 {
			return fmt.Errorf("fix: verified=%v unfixable=%d", f.Verified, len(f.Unfixable))
		}
		return checkUndone(s.before, indexACLs(f.Fixed), s.fixWitnesses)
	}
	g := out.gen
	if !g.Verified || len(g.Unsolvable) > 0 {
		return fmt.Errorf("%s: verified=%v unsolvable=%d", kind, g.Verified, len(g.Unsolvable))
	}
	var opens []openIntent
	if kind == kindOpen {
		opens = s.opens
	}
	_, err := checkGenerated(s.before, indexACLs(g.Generated), out.engine.FECs(), opens, rng, genPathsFEC, genPerPath)
	return err
}

// selfTestSynth corrupts an accepted output and fails the run if the
// reference accepts the corruption: a fix "plan" that leaves the
// update as it was, or a generated network with a deny-all rule put on
// top of one synthesized ACL.
func selfTestSynth(rep *report, s *synthDraw, kind string, out *synthOutcome, rng *rand.Rand) {
	key := "self_test_" + kind
	if kind == kindFix {
		if checkUndone(s.before, s.fixAfterIdx, s.fixWitnesses) == nil {
			rep.fail("self-test: unfixed update accepted as fixed")
			return
		}
		rep.params[key] = "rejected"
		return
	}
	gen := indexACLs(out.gen.Generated)
	var target string
	for id := range out.gen.ACLs {
		if target == "" || id < target {
			target = id
		}
	}
	bs, err := netgen.Bindings(out.gen.Generated, []string{target})
	if err != nil {
		rep.fail("self-test: %v", err)
		return
	}
	bad := acl.PermitAll()
	if orig := bs[0].Iface.ACL(bs[0].Dir); orig != nil {
		bad = orig.Clone()
	}
	bad.Rules = append([]acl.Rule{{Action: acl.Deny, Match: header.MatchAll}}, bad.Rules...)
	gen = gen.with(bs[0].Iface.ID(), bs[0].Dir, bad)
	var opens []openIntent
	if kind == kindOpen {
		opens = s.opens
	}
	if _, err := checkGenerated(s.before, gen, out.engine.FECs(), opens, rng, genPathsFEC, genPerPath); err == nil {
		rep.fail("self-test: generated ACL %s with deny-all on top accepted", target)
		return
	}
	rep.params[key] = "rejected"
}

// synthID names the answer of one kind on draw k; migration has one
// input for every draw.
func synthID(k int, kind string) string {
	if kind == kindMigrate {
		return kind
	}
	return fmt.Sprintf("draw%d-%s", k, kind)
}

func runSynthesize(cfg config) (*report, error) {
	rep := newReport()
	draws, setupS, err := medianSetup(25, func() ([]*synthDraw, error) { return synthSetup(cfg.seed) })
	if err != nil {
		return nil, err
	}
	for _, s := range draws {
		if err := s.prepareReference(); err != nil {
			return nil, err
		}
	}
	rep.params["tier"] = tier.String()
	rep.params["wan_netgen_seed"] = experiments.Seed
	rep.params["draws"] = synthDraws
	rep.params["fix_pct"] = fixPct
	rep.params["open_per_edge"] = openPerEdge
	rep.params["workers"] = workers

	var t *tracer
	if cfg.trace {
		t = newTracer()
	}
	rng := rand.New(rand.NewSource(subSeed(cfg.seed, 9, 1)))
	tested := map[string]bool{}
	lat := map[string][]float64{}
	var rounds, tracedMig, untracedMig []float64
	var counts []map[string]float64
	start := time.Now()
	// A round is the three kinds on one draw. Rounds run while time is
	// left, at least one, and a round starts only if at least half of a
	// typical round fits, so a run overruns its time by little.
	for round := 0; round == 0 || time.Since(start)+time.Duration(0.5*mean(rounds)*float64(time.Millisecond)) < cfg.seconds; round++ {
		k := round % len(draws)
		s := draws[k]
		// A traced run leaves round 0 untraced as the baseline for the
		// tracing overhead and traces every later round.
		traced := cfg.trace && round > 0
		var opT *tracer
		if traced {
			opT = t
		}
		var roundMS float64
		ok := true
		for j, kind := range synthKinds {
			op := round*synthKindNum + j
			id := synthID(k, kind)
			rep.attempted++
			out, err := synthOp(s, kind, opT, op)
			if err == nil {
				err = validateSynth(s, kind, out, rng)
			}
			if err != nil {
				rep.fail("op %d (%s): %v", op, id, err)
				ok = false
				continue
			}
			if !recordAnswer(rep, id, out.answer) {
				ok = false
				continue
			}
			if !tested[kind] {
				tested[kind] = true
				selfTestSynth(rep, s, kind, out, rng)
			}
			lat[kind] = append(lat[kind], out.elapsed.Seconds())
			roundMS += ms(out.elapsed)
			rep.ops = append(rep.ops, map[string]any{"round": round, "input": id, "ms": ms(out.elapsed), "traced": traced})
			if traced {
				counts = append(counts, out.counts)
			}
			if kind == kindMigrate && traced {
				tracedMig = append(tracedMig, ms(out.elapsed))
			} else if kind == kindMigrate {
				untracedMig = append(untracedMig, ms(out.elapsed))
			}
		}
		if ok {
			rounds = append(rounds, roundMS)
		}
	}

	rss := peakRSSMB(0)
	rep.endToEnd["setup_s"] = metric{setupS, "s"}
	rep.endToEnd["peak_rss_mb"] = metric{rss, "MB"}
	rep.endToEnd["op_p50_ms"] = metric{quantile(rounds, 0.5), "ms"}
	rep.endToEnd["op_p90_ms"] = metric{quantile(rounds, 0.9), "ms"}
	rep.named["setup_s"] = metric{setupS, "s"}
	rep.named["peak_rss_mb"] = metric{rss, "MB"}
	rep.named["round_p50_ms"] = metric{quantile(rounds, 0.5), "ms"}
	rep.named["fix_s"] = metric{median(lat[kindFix]), "s"}
	rep.named["generate_migration_s"] = metric{median(lat[kindMigrate]), "s"}
	rep.named["generate_open_s"] = metric{median(lat[kindOpen]), "s"}
	rep.named["rounds"] = metric{float64(len(rounds)), "count"}
	rep.named["ops"] = metric{float64(rep.attempted), "count"}
	rep.named["failed_ops"] = metric{float64(rep.failed), "count"}

	if cfg.trace {
		self := selfTimes(t.spans)
		rep.spans = t.spans
		layers := emptyLayers()
		for _, name := range []string{"topo.paths", "core.fecs", "fix.solve", "fix.simplify", "fix.verify",
			"generate.derive_aec", "generate.solve", "generate.synthesize", "generate.verify"} {
			layers[name+"_ms"] = metric{medianSelfMS(self, name), "ms"}
		}
		setLayers(layers, medianCounts(counts))
		// Migration has the same input in every round, so its traced and
		// untraced calls differ only by the tracing.
		if len(tracedMig) > 0 && len(untracedMig) > 0 {
			layers["trace.overhead_ms"] = metric{median(tracedMig) - median(untracedMig), "ms"}
		}
		rep.layers = layers
		rep.coverage = coverageLine(t.spans, self, "op")
	}
	return rep, nil
}

func pinSynthesize(cfg config) (map[string]string, error) {
	draws, err := synthSetup(cfg.seed)
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	rng := rand.New(rand.NewSource(subSeed(cfg.seed, 9, 1)))
	for k, s := range draws {
		if err := s.prepareReference(); err != nil {
			return nil, err
		}
		for _, kind := range synthKinds {
			if _, done := out[synthID(k, kind)]; done {
				continue
			}
			o, err := synthOp(s, kind, nil, 0)
			if err == nil {
				err = validateSynth(s, kind, o, rng)
			}
			if err != nil {
				return nil, err
			}
			out[synthID(k, kind)] = o.answer
		}
	}
	return out, nil
}
