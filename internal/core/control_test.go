package core_test

import (
	"encoding/json"
	"testing"

	"jinjing/internal/acl"
	"jinjing/internal/core"
	"jinjing/internal/header"
	"jinjing/internal/netgen"
	"jinjing/internal/papernet"
	"jinjing/internal/topo"
)

func TestControlOpenCheck(t *testing.T) {
	// Intent: open traffic 6 from A:1 to D:3. An update that removes the
	// deny satisfies it; leaving the network unchanged violates it.
	before := papernet.Build()
	opened := before.Clone()
	a1, _ := opened.LookupInterface("A:1")
	a1.SetACL(topo.In, acl.PermitAll())

	ctrl := core.Control{
		From:  map[string]bool{"A:1": true},
		To:    map[string]bool{"D:3": true},
		Mode:  core.Open,
		Match: header.DstMatch(pfx("6.0.0.0/8")),
	}

	good := core.New(before, opened, papernet.Scope(), core.DefaultOptions())
	good.Controls = []core.Control{ctrl}
	if res := good.Check(); !res.Consistent {
		t.Fatalf("removing the deny satisfies the open intent: %+v", res.Violations)
	}

	bad := core.New(before, before.Clone(), papernet.Scope(), core.DefaultOptions())
	bad.Controls = []core.Control{ctrl}
	res := bad.Check()
	if res.Consistent {
		t.Fatal("an unchanged network cannot satisfy the open intent")
	}
	// The counterexample must be traffic to 6/8.
	if len(res.Violations) == 0 || !pfx("6.0.0.0/8").Matches(res.Violations[0].Packet.DstIP) {
		t.Fatalf("counterexample should be in 6.0.0.0/8: %+v", res.Violations)
	}
}

func TestControlOpenSideEffectCaught(t *testing.T) {
	// An update that opens 6/8 but also breaks traffic 1 must still be
	// flagged (open intents protect nothing else).
	before := papernet.Build()
	after := before.Clone()
	a1, _ := after.LookupInterface("A:1")
	a1.SetACL(topo.In, acl.MustParse("deny dst 1.0.0.0/8, permit all"))
	e := core.New(before, after, papernet.Scope(), core.DefaultOptions())
	e.Controls = []core.Control{{
		From:  map[string]bool{"A:1": true},
		To:    map[string]bool{"D:3": true},
		Mode:  core.Open,
		Match: header.DstMatch(pfx("6.0.0.0/8")),
	}}
	res := e.Check()
	if res.Consistent {
		t.Fatal("the side effect on traffic 1 must be caught")
	}
}

func TestControlFixRestoresDesiredReachability(t *testing.T) {
	// Intent: isolate 5/8 between A:1 and D:3. The operator's update is
	// a no-op; fix must synthesize the isolation on allowed interfaces
	// and verify.
	before := papernet.Build()
	e := core.New(before, before.Clone(), papernet.Scope(), core.DefaultOptions())
	a1, _ := before.LookupInterface("A:1")
	a2, _ := before.LookupInterface("A:2")
	e.Allow = []topo.ACLBinding{
		{Iface: a1, Dir: topo.In},
		{Iface: a2, Dir: topo.Out},
	}
	e.Controls = []core.Control{{
		From:  map[string]bool{"A:1": true},
		To:    map[string]bool{"D:3": true},
		Mode:  core.Isolate,
		Match: header.DstMatch(pfx("5.0.0.0/8")),
	}}
	res, err := e.Fix()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatalf("fix must achieve the isolation intent; actions: %v", res.Actions)
	}
	if len(res.Actions) == 0 {
		t.Fatal("isolation requires at least one new rule")
	}
	// Traffic 5's forwarding path must now deny it.
	for _, p := range res.Fixed.AllPaths(papernet.Scope()) {
		if p.Dst().ID() == "D:3" && p.ForwardsClass(pfx("5.0.0.0/8")) {
			if pathPermits(res.Fixed, p, header.Packet{DstIP: 5 << 24}) {
				t.Errorf("traffic 5 still reachable via %v", p)
			}
		}
	}
}

func TestEngineResultsSurviveJSONRoundTrip(t *testing.T) {
	// Serialize a WAN and its perturbed snapshot, reload both, and
	// confirm the engine reaches the same verdict — the CLI's actual
	// data path.
	w := netgen.Build(netgen.DefaultConfig(netgen.Small, 11))
	after := w.Perturb(3, 3)

	reload := func(n *topo.Network) *topo.Network {
		data, err := json.Marshal(n)
		if err != nil {
			t.Fatal(err)
		}
		out := topo.NewNetwork()
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	e1 := core.New(w.Net, after, w.Scope, core.DefaultOptions())
	e2 := core.New(reload(w.Net), reload(after), w.Scope, core.DefaultOptions())
	r1, r2 := e1.Check(), e2.Check()
	if r1.Consistent != r2.Consistent {
		t.Fatalf("verdict changed across JSON round trip: %v vs %v", r1.Consistent, r2.Consistent)
	}
	if r1.FECs != r2.FECs {
		t.Fatalf("FEC count changed across JSON round trip: %d vs %d", r1.FECs, r2.FECs)
	}
}

func TestMaintainShieldsFromIsolate(t *testing.T) {
	// §6's priority example on the (A:1 -> D:3) pair, which carries
	// traffic 1-6: "maintain dst 2/8" listed before "isolate dst all"
	// protects traffic 2 while everything else to D:3 must be blocked.
	// The update "permit 2/8, deny all" at A:1 achieves exactly that
	// (traffic 7 to C:3 keeps its original denial — at A:1 now instead
	// of C:1, which leaves every path decision unchanged).
	before := papernet.Build()
	after := before.Clone()
	a1, _ := after.LookupInterface("A:1")
	a1.SetACL(topo.In, acl.MustParse("permit dst 2.0.0.0/8, deny all"))

	maintain2 := core.Control{
		From: map[string]bool{"A:1": true}, To: map[string]bool{"D:3": true},
		Mode: core.Maintain, Match: header.DstMatch(pfx("2.0.0.0/8")),
	}
	isolateAll := core.Control{
		From: map[string]bool{"A:1": true}, To: map[string]bool{"D:3": true},
		Mode: core.Isolate, Match: header.MatchAll,
	}

	e := core.New(before, after, papernet.Scope(), core.DefaultOptions())
	e.Controls = []core.Control{maintain2, isolateAll}
	if res := e.Check(); !res.Consistent {
		t.Fatalf("update satisfies maintain-then-isolate: %+v", res.Violations)
	}

	// Swapped priority: isolate-all now covers 2/8 too, and the update
	// (which keeps 2/8 reachable on p0) must be flagged.
	e2 := core.New(before, after, papernet.Scope(), core.DefaultOptions())
	e2.Controls = []core.Control{isolateAll, maintain2}
	res := e2.Check()
	if res.Consistent {
		t.Fatal("isolate-all listed first must win over maintain")
	}
	if len(res.Violations) == 0 || !pfx("2.0.0.0/8").Matches(res.Violations[0].Packet.DstIP) {
		t.Fatalf("counterexample should be traffic 2: %+v", res.Violations)
	}
}

// TestEnginePathsUnderControlPrefixes pins the engine's path walk to
// AllPaths when control prefixes refine the classes: refinement splits
// classes without changing any LPM result, so the path set — which the
// snapshot digest and shard windows depend on — must stay hop for hop
// the same.
func TestEnginePathsUnderControlPrefixes(t *testing.T) {
	w := netgen.Build(netgen.DefaultConfig(netgen.Small, 2))
	e0 := w.EdgePrefixes[w.EdgeNames[0]][0]
	lo, _ := e0.Halves()
	var controls []core.Control
	for _, p := range []header.Prefix{lo, pfx("10.0.0.0/12"), pfx("8.128.0.0/9"), pfx("192.168.0.0/16")} {
		controls = append(controls, core.Control{
			From: map[string]bool{}, To: map[string]bool{},
			Mode: core.Isolate, Match: header.DstMatch(p),
		})
	}
	e := core.New(w.Net, w.Net, w.Scope, core.DefaultOptions())
	e.Controls = controls
	if got, plain := len(e.Classes()), len(w.Net.EnteringTraffic(w.Scope)); got <= plain {
		t.Fatalf("controls should refine the classes: %d vs %d unrefined", got, plain)
	}
	got, want := e.Paths(), w.Net.AllPaths(w.Scope)
	if len(got) != len(want) {
		t.Fatalf("engine walk found %d paths, AllPaths %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i].Hops) != len(want[i].Hops) {
			t.Fatalf("path %d: %v vs %v", i, got[i], want[i])
		}
		for k, h := range want[i].Hops {
			if got[i].Hops[k] != h {
				t.Fatalf("path %d hop %d: %v vs %v", i, k, got[i], want[i])
			}
		}
	}
}
