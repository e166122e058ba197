package core_test

import (
	"strings"
	"testing"

	"jinjing/internal/core"
	"jinjing/internal/papernet"
)

func TestEngineLazyCaches(t *testing.T) {
	before := papernet.Build()
	e := core.New(before, nil, papernet.Scope(), core.DefaultOptions())
	if e.After != e.Before {
		t.Fatal("nil after should alias before")
	}
	p1 := e.Paths()
	p2 := e.Paths()
	if len(p1) != len(p2) || len(p1) == 0 {
		t.Fatal("Paths should be stable")
	}
	c1 := e.Classes()
	if len(c1) != 7 {
		t.Fatalf("classes = %d", len(c1))
	}
	f := e.FECs()
	if len(f) != 5 {
		t.Fatalf("FECs = %d", len(f))
	}
}

func TestTimingsString(t *testing.T) {
	e := newRunningEngine(t, core.DefaultOptions())
	res := e.Check()
	s := res.Timings.String()
	if !strings.Contains(s, "=") {
		t.Fatalf("timings string %q", s)
	}
}

func TestControlModeString(t *testing.T) {
	if core.Isolate.String() != "isolate" || core.Open.String() != "open" ||
		core.Maintain.String() != "maintain" {
		t.Error("ControlMode.String wrong")
	}
}

func TestFixActionString(t *testing.T) {
	e := newRunningEngine(t, core.DefaultOptions())
	res, err := e.Fix()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Actions {
		s := a.String()
		if !strings.Contains(s, "add to") || !strings.Contains(s, a.BindingID) {
			t.Errorf("FixAction.String = %q", s)
		}
	}
}

func TestGenerateRequiresTargets(t *testing.T) {
	before := papernet.Build()
	e := core.New(before, before.Clone(), papernet.Scope(), core.DefaultOptions())
	if _, err := e.Generate(nil); err == nil {
		t.Fatal("generate without allow targets must error")
	}
}

func TestCheckFindAllVsFirst(t *testing.T) {
	// FindAllViolations reports one violation per broken FEC; the default
	// stops at the first.
	first := newRunningEngine(t, core.DefaultOptions())
	r1 := first.Check()
	if len(r1.Violations) != 1 {
		t.Fatalf("default mode should report exactly one violation, got %d", len(r1.Violations))
	}
	opts := core.DefaultOptions()
	opts.FindAllViolations = true
	all := newRunningEngine(t, opts)
	r2 := all.Check()
	if len(r2.Violations) != 2 {
		t.Fatalf("find-all should report both broken FECs, got %d", len(r2.Violations))
	}
}

func TestCheckParallelAgreesWithSequential(t *testing.T) {
	opts := core.DefaultOptions()
	opts.FindAllViolations = true
	e := newRunningEngine(t, opts)
	seq := e.Check()
	for _, workers := range []int{1, 2, 4, 8} {
		e2 := newRunningEngine(t, opts)
		par := checkWorkers(e2, workers)
		if par.Consistent != seq.Consistent {
			t.Fatalf("workers=%d: verdict %v != %v", workers, par.Consistent, seq.Consistent)
		}
		if len(par.Violations) != len(seq.Violations) {
			t.Fatalf("workers=%d: %d violations != %d", workers, len(par.Violations), len(seq.Violations))
		}
		for i := range par.Violations {
			if par.Violations[i].Classes[0] != seq.Violations[i].Classes[0] {
				t.Fatalf("workers=%d: violation order differs", workers)
			}
		}
	}
	// Consistent case.
	before := papernet.Build()
	same := core.New(before, before.Clone(), papernet.Scope(), core.DefaultOptions())
	if !checkWorkers(same, 4).Consistent {
		t.Fatal("parallel check flagged an unchanged network")
	}
}

func TestExplainViolation(t *testing.T) {
	e := newRunningEngine(t, core.DefaultOptions())
	res := e.Check()
	if res.Consistent {
		t.Fatal("expected a violation")
	}
	exps := e.Explain(res.Violations[0])
	if len(exps) == 0 {
		t.Fatal("no explanations")
	}
	for _, x := range exps {
		if x.Before.Permitted == x.After.Permitted {
			t.Errorf("explanation should show a flipped verdict: %+v", x)
		}
		s := x.String()
		if !strings.Contains(s, "before:") || !strings.Contains(s, "after:") {
			t.Errorf("rendering missing sections:\n%s", s)
		}
		// The after-trace must name the new deny rule on A:1.
		found := false
		for _, h := range x.After.Hops {
			if h.BindingID == "A:1:in" && strings.HasPrefix(h.Rule, "deny dst") {
				found = true
			}
		}
		if !found && !x.After.Permitted {
			t.Errorf("after-trace should blame A:1's new deny:\n%s", x)
		}
	}
}
