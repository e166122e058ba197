package core

import (
	"reflect"
	"testing"

	"jinjing/internal/header"
	"jinjing/internal/netgen"
	"jinjing/internal/topo"
)

// TestDstFECOfMatchesForwardingScan pins the DEC split's lookup: for
// every destination atom generate derives — finer than the engine's
// classes, and partly outside every routed prefix — the FEC it maps to
// must carry exactly the paths a per-path ForwardsClass scan finds.
func TestDstFECOfMatchesForwardingScan(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		w := netgen.Build(netgen.DefaultConfig(netgen.Small, seed))
		e := New(w.Net, w.Net, w.Scope, DefaultOptions())
		e.Controls = []Control{{
			Mode: Open, From: map[string]bool{}, To: map[string]bool{},
			Match: header.DstMatch(header.MustParsePrefix("10.0.0.0/12")),
		}}
		classes, err := e.deriveClasses()
		if err != nil {
			t.Fatal(err)
		}
		fecOf, fecs := e.dstFECOf(), e.FECs()
		seen := map[header.Prefix]bool{}
		var routed, unrouted int
		for _, c := range classes {
			if seen[c.Dst] {
				continue
			}
			seen[c.Dst] = true
			var want []topo.Path
			for _, p := range e.Paths() {
				if p.ForwardsClass(c.Dst) {
					want = append(want, p)
				}
			}
			fi := fecOf(c.Dst)
			if fi < 0 {
				unrouted++
				if len(want) != 0 {
					t.Fatalf("seed %d: %v maps to no FEC but %d paths forward it", seed, c.Dst, len(want))
				}
				continue
			}
			routed++
			if !reflect.DeepEqual(fecs[fi].Paths, want) {
				t.Fatalf("seed %d: %v maps to FEC %d with %d paths, scan finds %d", seed, c.Dst, fi, len(fecs[fi].Paths), len(want))
			}
		}
		if routed == 0 || unrouted == 0 {
			t.Fatalf("seed %d: %d routed and %d unrouted atoms; the test needs both", seed, routed, unrouted)
		}
	}
}
