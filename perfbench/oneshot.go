package main

// oneshot-check: the operator's cold, CLI-equivalent path. Each
// operation resolves the whole-scope LAI program over one seeded update
// of the §8 network (buildWAN), builds a fresh engine, and checks with
// all violations on 2 workers — derivation, encode/decide, and witness
// extraction do all the work; no verdict cache, daemon, or synthesis is
// involved.

import (
	"fmt"
	"math/rand"
	"time"

	"jinjing/internal/core"
	"jinjing/internal/experiments"
	"jinjing/internal/lai"
	"jinjing/internal/netgen"
	"jinjing/internal/topo"
)

// The update pool: every perturbation ratio of Fig. 4a's sweep, each
// drawn oneshotDraws times, checked round-robin. A pool rather than one
// update keeps a run's median from resting on one draw's luck. Each
// update is rebuilt from its seed just before its op (untimed), so the
// pool costs no memory and the peak RSS is the program's.
var oneshotPcts = []float64{1, 3, 5}

const oneshotDraws = 16

type oneshotInputs struct {
	w     *netgen.WAN
	prog  *lai.Program
	pcts  []float64
	seeds []int64
	ids   []string
}

// update builds update i.
func (in *oneshotInputs) update(i int) *topo.Network { return in.w.Perturb(in.seeds[i], in.pcts[i]) }

func oneshotSetup(seed int64) (*oneshotInputs, error) {
	w := buildWAN(0)
	prog, err := lai.Parse(wholeScopeProgram(w, "check"))
	if err != nil {
		return nil, fmt.Errorf("program: %v", err)
	}
	in := &oneshotInputs{w: w, prog: prog}
	for k := 0; k < oneshotDraws; k++ {
		for _, pct := range oneshotPcts {
			in.pcts = append(in.pcts, pct)
			in.seeds = append(in.seeds, subSeed(seed, 1, 100*k+int(pct)))
			in.ids = append(in.ids, fmt.Sprintf("pct%g-draw%d", pct, k))
		}
	}
	return in, nil
}

// oneshotOp runs one cold check of update upd, recording spans on t
// when t is non-nil. Traced operations call Engine.Paths and Engine.FECs
// explicitly first; both are memoized, so the check then reuses them
// and the spans partition the operation without redoing work.
func oneshotOp(in *oneshotInputs, upd *topo.Network, t *tracer, op int) (*core.CheckResult, time.Duration, map[string]float64, error) {
	t0 := time.Now()
	root := t.begin("op", -1, op)
	s := t.begin("lai.resolve", root, op)
	r, err := lai.Resolve(in.prog, in.w.Net, lai.ResolveOptions{Updated: upd})
	t.end(s)
	if err != nil {
		return nil, 0, nil, err
	}
	opts := core.DefaultOptions()
	opts.FindAllViolations = true
	opts.Workers = workers
	e := core.New(r.Before, r.After, r.Scope, opts)
	if t != nil {
		s = t.begin("topo.paths", root, op)
		e.Paths()
		t.end(s)
		s = t.begin("core.fecs", root, op)
		e.FECs()
		t.end(s)
	}
	s = t.begin("check", root, op)
	res := e.Check()
	t.end(s)
	t.end(root)
	elapsed := time.Since(t0)
	checkPhases(t, s, op, res.Timings)
	counts := checkCounts(res)
	counts["topo.paths"] = float64(len(e.Paths())) // memoized by the check
	counts["core.classes"] = float64(len(e.Classes()))
	return res, elapsed, counts, nil
}

// checkPhases records a check's phases as child spans. The sequential
// check reports its decision time as "solve"; the parallel one as
// "encode" (the workers solve while encoding) plus a near-zero "solve".
// Both map to check.decide, so layer numbers do not move with the
// worker count.
func checkPhases(t *tracer, parent, op int, tm core.Timings) {
	t.phases(parent, op,
		[]string{"check.preprocess", "check.fec", "check.decide", "check.witness"},
		[]time.Duration{tm["preprocess"], tm["fec"], tm["encode"] + tm["solve"], tm["witness"]})
}

func checkAnswer(res *core.CheckResult) string {
	return fmt.Sprintf("consistent=%v violations=%d", res.Consistent, len(res.Violations))
}

// validateCheck replays every violation of res against the inputs.
func validateCheck(res *core.CheckResult, before, after aclIndex) error {
	ws := make([]witness, len(res.Violations))
	for i, v := range res.Violations {
		ws[i] = witnessOf(v.Packet, v.Classes, v.Paths)
	}
	return checkVerdict(res.Complete, len(res.Unknown), res.Consistent, ws, before, after)
}

func runOneshot(cfg config) (*report, error) {
	rep := newReport()
	in, setupS, err := medianSetup(25, func() (*oneshotInputs, error) { return oneshotSetup(cfg.seed) })
	if err != nil {
		return nil, err
	}
	before := indexACLs(in.w.Net)
	rep.params["tier"] = tier.String()
	rep.params["wan_netgen_seed"] = experiments.Seed
	rep.params["updates"] = fmt.Sprintf("%d (perturbation %v%% x %d draws)", len(in.ids), oneshotPcts, oneshotDraws)
	rep.params["workers"] = workers

	var t *tracer
	if cfg.trace {
		t = newTracer()
	}
	rng := rand.New(rand.NewSource(subSeed(cfg.seed, 9, 0)))
	selfTested := false
	var lat, tracedLat, untracedLat []float64
	var counts []map[string]float64
	deadline := time.Now().Add(cfg.seconds)
	for op := 0; op == 0 || time.Now().Before(deadline); op++ {
		i := op % len(in.ids)
		upd := in.update(i)
		traced := cfg.trace && op%2 == 1
		var opT *tracer
		if traced {
			opT = t
		}
		rep.attempted++
		res, elapsed, opCounts, err := oneshotOp(in, upd, opT, op)
		if err != nil {
			rep.fail("op %d (%s): %v", op, in.ids[i], err)
			continue
		}
		after := indexACLs(upd)
		if err := validateCheck(res, before, after); err != nil {
			rep.fail("op %d (%s): %v", op, in.ids[i], err)
			continue
		}
		if !recordAnswer(rep, in.ids[i], checkAnswer(res)) {
			continue
		}
		if !selfTested && len(res.Violations) > 0 {
			selfTested = true
			selfTestWitness(rep, rng, before, after, res)
		}
		lat = append(lat, ms(elapsed))
		rep.ops = append(rep.ops, map[string]any{"input": in.ids[i], "ms": ms(elapsed), "traced": traced})
		if traced {
			tracedLat = append(tracedLat, ms(elapsed))
			counts = append(counts, opCounts)
		} else {
			untracedLat = append(untracedLat, ms(elapsed))
		}
	}
	if !selfTested {
		rep.fail("self-test: no violation to corrupt in %d operations", rep.attempted)
	}

	rss := peakRSSMB(0)
	p50, p90 := quantile(lat, 0.5), quantile(lat, 0.9)
	rep.endToEnd["setup_s"] = metric{setupS, "s"}
	rep.endToEnd["peak_rss_mb"] = metric{rss, "MB"}
	rep.endToEnd["op_p50_ms"] = metric{p50, "ms"}
	rep.endToEnd["op_p90_ms"] = metric{p90, "ms"}
	rep.named["setup_s"] = metric{setupS, "s"}
	rep.named["peak_rss_mb"] = metric{rss, "MB"}
	rep.named["check_p50_ms"] = metric{p50, "ms"}
	rep.named["check_p90_ms"] = metric{p90, "ms"}
	rep.named["ops"] = metric{float64(rep.attempted), "count"}
	rep.named["failed_ops"] = metric{float64(rep.failed), "count"}
	rep.named["samples"] = metric{float64(len(lat)), "count"}

	if cfg.trace {
		self := selfTimes(t.spans)
		rep.spans = t.spans
		layers := emptyLayers()
		for _, name := range []string{"lai.resolve", "topo.paths", "core.fecs", "check.preprocess", "check.decide", "check.witness"} {
			layers[name+"_ms"] = metric{medianSelfMS(self, name), "ms"}
		}
		setLayers(layers, medianCounts(counts))
		if len(tracedLat) > 0 && len(untracedLat) > 0 {
			layers["trace.overhead_ms"] = metric{median(tracedLat) - median(untracedLat), "ms"}
		}
		rep.layers = layers
		rep.coverage = coverageLine(t.spans, self, "op")
	}
	return rep, nil
}

// checkCounts extracts a check's per-layer counts.
func checkCounts(res *core.CheckResult) map[string]float64 {
	m := map[string]float64{
		"check.violations": float64(len(res.Violations)),
		"sat.conflicts":    float64(res.SolverStats.Conflicts),
		"sat.propagations": float64(res.SolverStats.Propagations),
		"pset.decided":     float64(res.Stats.PsetDecided),
		"pset.bailouts":    float64(res.Stats.PsetBailout),
		"core.fecs":        float64(res.FECs),
	}
	if res.FECs > 0 {
		m["check.solved_ratio"] = float64(res.SolvedFECs) / float64(res.FECs)
	}
	return m
}

// recordAnswer pins the answer for one input within the run: the same
// input must get the same answer every time it comes round.
func recordAnswer(rep *report, id, ans string) bool {
	if prev, ok := rep.answers[id]; ok && prev != ans {
		rep.fail("input %s answered %q, earlier %q", id, ans, prev)
		return false
	}
	rep.answers[id] = ans
	return true
}

// selfTestWitness corrupts one reported violation (see decoy) and
// fails the run if the reference accepts it.
func selfTestWitness(rep *report, rng *rand.Rand, before, after aclIndex, res *core.CheckResult) {
	var others []refPath
	for _, v := range res.Violations {
		others = append(others, witnessOf(v.Packet, v.Classes, v.Paths).paths...)
	}
	v := res.Violations[0]
	bad, ok := decoy(rng, before, after, witnessOf(v.Packet, v.Classes, v.Paths), others)
	if !ok {
		rep.params["self_test_witness"] = "skipped: no decoy packet found"
		return
	}
	if checkWitness(before, after, bad) == nil {
		rep.fail("self-test: corrupted witness %v accepted", bad.pkt)
		return
	}
	rep.params["self_test_witness"] = "rejected"
}

func pinOneshot(cfg config) (map[string]string, error) {
	in, err := oneshotSetup(cfg.seed)
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for i := range in.ids {
		upd := in.update(i)
		res, _, _, err := oneshotOp(in, upd, nil, i)
		if err != nil {
			return nil, err
		}
		if err := validateCheck(res, indexACLs(in.w.Net), indexACLs(upd)); err != nil {
			return nil, fmt.Errorf("%s: %v", in.ids[i], err)
		}
		out[in.ids[i]] = checkAnswer(res)
	}
	return out, nil
}
