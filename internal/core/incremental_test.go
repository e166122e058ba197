package core_test

import (
	"testing"

	"jinjing/internal/acl"
	"jinjing/internal/core"
	"jinjing/internal/header"
	"jinjing/internal/netgen"
	"jinjing/internal/papernet"
	"jinjing/internal/topo"
)

// These tests pin the incremental-verification contract: with a
// VerdictCache installed, a warm re-check after an edit replays cached
// verdicts for every FEC the edit cannot reach, and its result —
// verdict, violations, counterexamples, SolvedFECs — is byte-identical
// to a fresh-engine cold run.

// editAfter clones the network and prepends a deny for the given
// traffic prefix on one binding.
func editAfter(t *testing.T, n *topo.Network, ifaceID string, p header.Prefix) *topo.Network {
	t.Helper()
	out := n.Clone()
	iface, err := out.LookupInterface(ifaceID)
	if err != nil {
		t.Fatal(err)
	}
	a := iface.ACL(topo.In)
	if a == nil {
		a = acl.PermitAll()
	}
	a.Rules = append([]acl.Rule{{Action: acl.Deny, Match: header.DstMatch(p)}}, a.Rules...)
	iface.SetACL(topo.In, a)
	return out
}

func TestWarmRecheckMatchesColdAfterEdit(t *testing.T) {
	before := papernet.Build()
	after := runningExampleUpdate(before)
	opts := core.DefaultOptions()
	// Without the differential filter the encoded pairs are the full
	// ACLs, so change-impact is exactly "the FECs through the edited
	// binding" — the localized-invalidation property this test pins.
	opts.UseDifferential = false
	opts.FindAllViolations = true
	opts.Verdicts = core.NewVerdictCache()

	warm := core.New(before, after, papernet.Scope(), opts)
	cold0 := warm.Check()
	if cold0.Stats.FECCacheHits != 0 {
		t.Fatalf("first generation replayed %d verdicts from an empty cache", cold0.Stats.FECCacheHits)
	}
	if cold0.Stats.FECCacheMisses == 0 {
		t.Fatal("first generation recorded no cache misses")
	}

	// One extra edit on top of the running-example update.
	edited := editAfter(t, after, "C:1", papernet.Traffic(6))
	warm.UpdateAfter(edited)
	got := warm.Check()

	fresh := core.New(before, edited, papernet.Scope(), func() core.Options {
		o := core.DefaultOptions()
		o.UseDifferential = false
		o.FindAllViolations = true
		return o
	}()).Check()

	if a, b := checkSignature(got), checkSignature(fresh); a != b {
		t.Fatalf("warm re-check diverged from cold:\nwarm:\n%s\ncold:\n%s", a, b)
	}
	if got.SolvedFECs != fresh.SolvedFECs {
		t.Fatalf("warm SolvedFECs=%d, cold=%d", got.SolvedFECs, fresh.SolvedFECs)
	}
	if got.Stats.ChangedBindings != 1 {
		t.Fatalf("one binding was edited, change-impact saw %d", got.Stats.ChangedBindings)
	}
	if got.Stats.AffectedFECs >= got.FECs {
		t.Fatalf("a single-ACL edit affected all %d FECs", got.FECs)
	}
	if got.Stats.FECCacheHits == 0 {
		t.Fatal("warm re-check replayed nothing")
	}
}

func TestWarmRecheckNoEditReplaysVerdicts(t *testing.T) {
	before := papernet.Build()
	after := runningExampleUpdate(before)
	opts := core.DefaultOptions()
	opts.FindAllViolations = true
	opts.Verdicts = core.NewVerdictCache()

	warm := core.New(before, after, papernet.Scope(), opts)
	first := warm.Check()

	// A clone is a different network object with identical contents: every
	// FEC must replay, none may miss.
	warm.UpdateAfter(after.Clone())
	second := warm.Check()
	if a, b := checkSignature(second), checkSignature(first); a != b {
		t.Fatalf("unchanged re-check diverged:\n%s\nvs\n%s", a, b)
	}
	if second.Stats.FECCacheMisses != 0 {
		t.Fatalf("unchanged re-check missed %d times", second.Stats.FECCacheMisses)
	}
	if second.Stats.ChangedBindings != 0 || second.Stats.AffectedFECs != 0 {
		t.Fatalf("unchanged re-check saw impact %+v", second.Stats)
	}
	if second.Stats.FECCacheHits == 0 {
		t.Fatal("unchanged re-check replayed nothing")
	}
	if second.SolvedFECs != first.SolvedFECs {
		t.Fatalf("SolvedFECs drifted: %d vs %d", second.SolvedFECs, first.SolvedFECs)
	}
}

func TestWarmParallelRecheckMatchesCold(t *testing.T) {
	before := papernet.Build()
	after := runningExampleUpdate(before)
	for _, findAll := range []bool{false, true} {
		opts := core.DefaultOptions()
		opts.FindAllViolations = findAll
		opts.Verdicts = core.NewVerdictCache()
		warm := core.New(before, after, papernet.Scope(), opts)
		checkWorkers(warm, 4)

		edited := editAfter(t, after, "D:2", papernet.Traffic(7))
		warm.UpdateAfter(edited)
		got := checkWorkers(warm, 4)

		coldOpts := core.DefaultOptions()
		coldOpts.FindAllViolations = findAll
		fresh := core.New(before, edited, papernet.Scope(), coldOpts).Check()
		if a, b := checkSignature(got), checkSignature(fresh); a != b {
			t.Fatalf("findAll=%v: warm parallel re-check diverged:\nwarm:\n%s\ncold:\n%s", findAll, a, b)
		}
		if got.SolvedFECs != fresh.SolvedFECs {
			t.Fatalf("findAll=%v: warm SolvedFECs=%d, cold=%d", findAll, got.SolvedFECs, fresh.SolvedFECs)
		}
	}
}

// TestSequentialScanStopsAtFirstViolation pins the one-worker early
// stop: a cold first-violation check resolves no FEC past its answer,
// so its verdict-cache misses are exactly the non-skipped FECs up to
// and including the first violating one — strictly fewer than a
// find-all run's on a fixture with non-skipped FECs after it.
func TestSequentialScanStopsAtFirstViolation(t *testing.T) {
	w := netgen.Build(netgen.DefaultConfig(netgen.Small, 5))
	after := w.Perturb(5, 10)
	run := func(findAll bool) *core.CheckResult {
		opts := core.DefaultOptions()
		opts.Workers = 1
		opts.FindAllViolations = findAll
		opts.Forensics = findAll
		opts.Verdicts = core.NewVerdictCache()
		return core.New(w.Net, after, w.Scope, opts).Check()
	}
	all := run(true)
	first, upToFirst, lastNonSkipped := -1, 0, -1
	for _, f := range all.Forensics {
		if f.Route == "skip" {
			continue
		}
		lastNonSkipped = f.FEC
		if first < 0 {
			upToFirst++
			if f.Verdict == "violating" {
				first = f.FEC
			}
		}
	}
	if first < 0 || lastNonSkipped == first {
		t.Fatalf("fixture needs a first violation followed by non-skipped FECs (first=%d, last non-skipped=%d)",
			first, lastNonSkipped)
	}

	one := run(false)
	if one.Consistent {
		t.Fatal("first-violation run missed the violation")
	}
	if one.Stats.FECCacheMisses >= all.Stats.FECCacheMisses {
		t.Fatalf("first-violation misses %d not below find-all's %d: the scan resolved past its answer",
			one.Stats.FECCacheMisses, all.Stats.FECCacheMisses)
	}
	if one.Stats.FECCacheMisses != int64(upToFirst) {
		t.Fatalf("first-violation misses %d, want %d (non-skipped FECs in [0, %d])",
			one.Stats.FECCacheMisses, upToFirst, first)
	}
}

func TestVerdictCacheResetsOnConfigChange(t *testing.T) {
	before := papernet.Build()
	after := runningExampleUpdate(before)
	vc := core.NewVerdictCache()

	opts := core.DefaultOptions()
	opts.FindAllViolations = true
	opts.Verdicts = vc
	core.New(before, after, papernet.Scope(), opts).Check()

	// A differently-configured engine (controls present) must not replay
	// the plain-check verdicts: the cache resets, so its first check runs
	// cold and stays correct.
	ctl := opts
	withCtl := core.New(before, after, papernet.Scope(), ctl)
	withCtl.Controls = []core.Control{{
		From: map[string]bool{"A:e1": true}, To: map[string]bool{"E:x": true},
		Mode: core.Isolate, Match: header.DstMatch(papernet.Traffic(1)),
	}}
	res := withCtl.Check()
	if res.Stats.FECCacheHits != 0 {
		t.Fatalf("config change must reset the cache, yet %d verdicts replayed", res.Stats.FECCacheHits)
	}

	plain := core.New(before, after, papernet.Scope(), func() core.Options {
		o := core.DefaultOptions()
		o.FindAllViolations = true
		return o
	}())
	plain.Controls = withCtl.Controls
	if a, b := checkSignature(res), checkSignature(plain.Check()); a != b {
		t.Fatalf("post-reset check diverged from cold:\n%s\nvs\n%s", a, b)
	}
}

func TestFixSkipsCachedConsistentFECs(t *testing.T) {
	// Without the differential filter every consistent FEC reaches the
	// verdict cache, so a check-then-fix pipeline on one engine must
	// replay the check's verdicts instead of re-seeking.
	opts := core.DefaultOptions()
	opts.UseDifferential = false
	opts.FindAllViolations = true
	opts.Verdicts = core.NewVerdictCache()
	e := newRunningEngine(t, opts)
	e.Check()
	res, err := e.Fix()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatal("fix did not verify")
	}
	if res.Stats.FECCacheHits == 0 {
		t.Fatal("fix re-sought FECs the check already proved consistent")
	}

	// The fixing plan must equal the cold plan.
	coldOpts := core.DefaultOptions()
	coldOpts.UseDifferential = false
	coldOpts.FindAllViolations = true
	cold, err := newRunningEngine(t, coldOpts).Fix()
	if err != nil {
		t.Fatal(err)
	}
	if len(cold.Actions) != len(res.Actions) {
		t.Fatalf("warm fix plan has %d actions, cold %d", len(res.Actions), len(cold.Actions))
	}
	for i := range cold.Actions {
		if cold.Actions[i].String() != res.Actions[i].String() {
			t.Fatalf("action %d differs: warm %v, cold %v", i, res.Actions[i], cold.Actions[i])
		}
	}
}

func TestPrefilterDischargesEqualPairs(t *testing.T) {
	// Reordered disjoint rules and a redundant shadowed rule change the
	// ACL's fingerprint but not its decision model: with the differential
	// filter off, the SAT-free pre-filter must discharge the FECs without
	// a formula.
	before := papernet.Build()
	after := before.Clone()
	iface, err := after.LookupInterface("D:2")
	if err != nil {
		t.Fatal(err)
	}
	a := iface.ACL(topo.In)
	if a == nil || len(a.Rules) < 2 {
		t.Fatalf("expected a multi-rule ACL on D:2, got %v", a)
	}
	a.Rules[0], a.Rules[1] = a.Rules[1], a.Rules[0]

	opts := core.DefaultOptions()
	opts.UseDifferential = false
	opts.FindAllViolations = true
	opts.Verdicts = core.NewVerdictCache()
	res := core.New(before, after, papernet.Scope(), opts).Check()
	if !res.Consistent {
		t.Fatalf("reordering disjoint rules broke consistency: %v", res.Violations)
	}
	if res.Stats.PrefilterDischarged == 0 {
		t.Fatal("pre-filter discharged nothing")
	}
	if res.SolvedFECs != 0 {
		t.Fatalf("no solver verdict should be needed, yet SolvedFECs=%d", res.SolvedFECs)
	}
}
