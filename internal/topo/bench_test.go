package topo_test

import (
	"math/rand"
	"testing"

	"jinjing/internal/header"
	"jinjing/internal/netgen"
	"jinjing/internal/papernet"
	"jinjing/internal/topo"
)

func BenchmarkAllPathsFigure1(b *testing.B) {
	n := papernet.Build()
	s := papernet.Scope()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := n.AllPaths(s); len(got) != 4 {
			b.Fatalf("paths = %d", len(got))
		}
	}
}

func BenchmarkAllPathsWAN(b *testing.B) {
	for _, size := range []netgen.Size{netgen.Small, netgen.Medium} {
		w := netgen.Build(netgen.DefaultConfig(size, 1))
		b.Run(size.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if len(w.Net.AllPaths(w.Scope)) == 0 {
					b.Fatal("no paths")
				}
			}
		})
	}
}

// BenchmarkDeriveFECs measures the whole FEC derivation the engine
// runs: one forwarding walk for paths and per-path class sets, then the
// grouping.
func BenchmarkDeriveFECs(b *testing.B) {
	w := netgen.Build(netgen.DefaultConfig(netgen.Medium, 1))
	classes := w.Net.EnteringTraffic(w.Scope)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		paths, fwd := w.Net.WalkPaths(w.Scope, classes)
		if topo.NewFECSource(paths, classes, fwd).NumFECs() == 0 {
			b.Fatal("no FECs")
		}
	}
}

func BenchmarkLPMLookup(b *testing.B) {
	w := netgen.Build(netgen.DefaultConfig(netgen.Medium, 1))
	var dev *topo.Device
	for _, d := range w.Net.SortedDevices() {
		if len(d.FIB) > 50 {
			dev = d
			break
		}
	}
	if dev == nil {
		b.Fatal("no device with a big FIB")
	}
	r := rand.New(rand.NewSource(2))
	addrs := make([]uint32, 1024)
	for i := range addrs {
		addrs[i] = 10<<24 | r.Uint32()&0x00ffffff
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dev.LongestMatch(addrs[i%len(addrs)])
	}
}

func BenchmarkAtomizeClasses(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	var classes, cuts []header.Prefix
	for i := 0; i < 500; i++ {
		classes = append(classes, header.Prefix{
			Addr: 10<<24 | uint32(r.Intn(1<<16))<<8, Len: 24,
		}.Canonical())
		cuts = append(cuts, header.Prefix{
			Addr: 10<<24 | uint32(r.Intn(1<<12))<<12, Len: 8 + r.Intn(17),
		}.Canonical())
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		topo.AtomizeClasses(classes, cuts)
	}
}

func BenchmarkClone(b *testing.B) {
	w := netgen.Build(netgen.DefaultConfig(netgen.Medium, 1))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Net.Clone()
	}
}
