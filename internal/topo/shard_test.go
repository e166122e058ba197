package topo_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"jinjing/internal/header"
	"jinjing/internal/netgen"
	"jinjing/internal/papernet"
	"jinjing/internal/topo"
)

// naiveFECs is the reference grouping the forwarding walk replaces: a
// per-class × per-path ForwardsClass scan, grouping classes in
// first-seen order on the joined string identities of the paths that
// forward them.
func naiveFECs(paths []topo.Path, classes []header.Prefix) []topo.FEC {
	var out []topo.FEC
	index := map[string]int{}
	for _, c := range classes {
		var fwd []topo.Path
		var key []string
		for _, p := range paths {
			if p.ForwardsClass(c) {
				fwd = append(fwd, p)
				key = append(key, p.String())
			}
		}
		if len(fwd) == 0 {
			continue
		}
		k := strings.Join(key, "|")
		i, ok := index[k]
		if !ok {
			i = len(out)
			index[k] = i
			out = append(out, topo.FEC{Paths: fwd})
		}
		out[i].Classes = append(out[i].Classes, c)
	}
	return out
}

type fecScene struct {
	name  string
	net   *topo.Network
	scope *topo.Scope
	extra []header.Prefix // control-intent prefixes refining the classes
}

func fecScenes() []fecScene {
	scenes := []fecScene{{name: "papernet", net: papernet.Build(), scope: papernet.Scope()}}
	for _, size := range []netgen.Size{netgen.Small, netgen.Medium} {
		for seed := int64(1); seed <= 3; seed++ {
			w := netgen.Build(netgen.DefaultConfig(size, seed))
			scenes = append(scenes, fecScene{name: fmt.Sprintf("%s/%d", size, seed), net: w.Net, scope: w.Scope})
		}
	}
	// Control prefixes: halves and a quarter of announced /24s, an
	// aggregate over several edges, a slice of the external prefix, and
	// a prefix no FIB routes.
	w := netgen.Build(netgen.DefaultConfig(netgen.Small, 2))
	e0, e1 := w.EdgePrefixes[w.EdgeNames[0]][0], w.EdgePrefixes[w.EdgeNames[1]][1]
	lo, _ := e0.Halves()
	_, hi := e1.Halves()
	q, _ := hi.Halves()
	scenes = append(scenes, fecScene{name: "small/2+controls", net: w.Net, scope: w.Scope, extra: []header.Prefix{
		lo, hi, q,
		header.MustParsePrefix("10.0.0.0/12"),
		header.MustParsePrefix("8.128.0.0/9"),
		header.MustParsePrefix("192.168.0.0/16"),
	}})
	return scenes
}

// TestFECSourceMatchesNaiveScan pins the walk-derived FEC index to the
// per-class × per-path scan: the walk's per-path class sets, the FEC
// count and order, each FEC's classes and paths, and FECOf. With
// control prefixes refining the classes, the walk must also find
// exactly AllPaths's path set.
func TestFECSourceMatchesNaiveScan(t *testing.T) {
	for _, sc := range fecScenes() {
		classes := sc.net.EnteringTraffic(sc.scope, sc.extra...)
		paths, fwd := sc.net.WalkPaths(sc.scope, classes)
		if want := sc.net.AllPaths(sc.scope); !reflect.DeepEqual(paths, want) {
			t.Fatalf("%s: walk over %d classes found %d paths, AllPaths %d", sc.name, len(classes), len(paths), len(want))
		}
		for pi, p := range paths {
			var want []int32
			for ci, c := range classes {
				if p.ForwardsClass(c) {
					want = append(want, int32(ci))
				}
			}
			if !reflect.DeepEqual(fwd[pi], want) {
				t.Fatalf("%s: path %v forwards classes %v, walk recorded %v", sc.name, p, want, fwd[pi])
			}
		}

		want := naiveFECs(paths, classes)
		src := topo.NewFECSource(paths, classes, fwd)
		if src.NumFECs() != len(want) {
			t.Fatalf("%s: NumFECs = %d, naive scan = %d", sc.name, src.NumFECs(), len(want))
		}
		if got := src.FECs(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: FECs differ from the naive scan", sc.name)
		}
		for i, f := range want {
			if got := src.Paths(i); !reflect.DeepEqual(got, f.Paths) {
				t.Fatalf("%s: FEC %d Paths differ", sc.name, i)
			}
		}
		fecOf := map[header.Prefix]int{}
		for i, f := range want {
			for _, c := range f.Classes {
				fecOf[c] = i
			}
		}
		for ci, c := range classes {
			wantFEC, ok := fecOf[c]
			if !ok {
				wantFEC = -1
			}
			if got := src.FECOf(ci); got != wantFEC {
				t.Fatalf("%s: FECOf(%v) = %d, want %d", sc.name, c, got, wantFEC)
			}
		}
	}
}

// TestFECSourceShards checks the partition invariants: ranges cover
// [0, NumFECs) exactly once in order, respect the requested count, and
// are deterministic.
func TestFECSourceShards(t *testing.T) {
	w := netgen.Build(netgen.DefaultConfig(netgen.Small, 7))
	classes := w.Net.EnteringTraffic(w.Scope)
	paths, fwd := w.Net.WalkPaths(w.Scope, classes)
	src := topo.NewFECSource(paths, classes, fwd)
	n := src.NumFECs()
	if n == 0 {
		t.Fatal("no FECs generated")
	}
	for _, k := range []int{1, 2, 3, 8, n, n + 5, 1000} {
		shards := src.Shards(k)
		if len(shards) == 0 || len(shards) > k || len(shards) > n {
			t.Fatalf("Shards(%d) over %d FECs returned %d ranges", k, n, len(shards))
		}
		next := 0
		for _, sr := range shards {
			if sr.Lo != next || sr.Hi <= sr.Lo || sr.Hi > n {
				t.Fatalf("Shards(%d): bad range %+v (next=%d, n=%d)", k, sr, next, n)
			}
			next = sr.Hi
		}
		if next != n {
			t.Fatalf("Shards(%d): covered [0,%d), want [0,%d)", k, next, n)
		}
		again := src.Shards(k)
		if !reflect.DeepEqual(shards, again) {
			t.Fatalf("Shards(%d) not deterministic", k)
		}
	}
	if got := src.Shards(0); len(got) != 1 || got[0] != (topo.ShardRange{Lo: 0, Hi: n}) {
		t.Fatalf("Shards(0) = %+v, want one full range", got)
	}
	// When k == n every shard is a single FEC.
	for i, sr := range src.Shards(n) {
		if sr.Lo != i || sr.Hi != i+1 {
			t.Fatalf("Shards(n)[%d] = %+v", i, sr)
		}
	}
}

func TestFECSourceEmpty(t *testing.T) {
	src := topo.NewFECSource(nil, nil, nil)
	if src.NumFECs() != 0 {
		t.Fatalf("NumFECs = %d", src.NumFECs())
	}
	if got := src.Shards(4); got != nil {
		t.Fatalf("Shards on empty source = %+v", got)
	}
}
