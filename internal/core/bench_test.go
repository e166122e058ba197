package core_test

import (
	"strconv"
	"sync"
	"testing"

	"jinjing/internal/core"
	"jinjing/internal/netgen"
	"jinjing/internal/papernet"
	"jinjing/internal/topo"
)

var (
	mediumOnce sync.Once
	mediumWAN  *netgen.WAN
)

func netgenMediumOnce() *netgen.WAN {
	mediumOnce.Do(func() {
		mediumWAN = netgen.Build(netgen.DefaultConfig(netgen.Medium, 42))
	})
	return mediumWAN
}

func itoa(i int) string { return strconv.Itoa(i) }

func BenchmarkCheckFigure1(b *testing.B) {
	before := papernet.Build()
	after := runningExampleUpdate(before)
	for _, mode := range []string{"differential", "basic", "monolithic"} {
		b.Run(mode, func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.UseDifferential = mode == "differential"
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e := core.New(before, after, papernet.Scope(), opts)
				var consistent bool
				if mode == "monolithic" {
					consistent = e.CheckMonolithic().Consistent
				} else {
					consistent = e.Check().Consistent
				}
				if consistent {
					b.Fatal("must be inconsistent")
				}
			}
		})
	}
}

func BenchmarkFixFigure1(b *testing.B) {
	before := papernet.Build()
	after := runningExampleUpdate(before)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := core.New(before, after, papernet.Scope(), core.DefaultOptions())
		for _, dev := range []string{"A", "B"} {
			d := before.Devices[dev]
			for _, ifc := range d.SortedInterfaces() {
				e.Allow = append(e.Allow,
					topo.ACLBinding{Iface: ifc, Dir: topo.In},
					topo.ACLBinding{Iface: ifc, Dir: topo.Out})
			}
		}
		res, err := e.Fix()
		if err != nil {
			b.Fatal(err)
		}
		if !res.Verified {
			b.Fatal("fix must verify")
		}
	}
}

func BenchmarkGenerateFigure1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, sources := migrationEngine(core.DefaultOptions())
		res, err := e.Generate(sources)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Verified {
			b.Fatal("generate must verify")
		}
	}
}

func BenchmarkConservativeCheck(b *testing.B) {
	before := papernet.Build()
	after := runningExampleUpdate(before)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := core.New(before, after, papernet.Scope(), core.DefaultOptions())
		if e.CheckConservative().Consistent {
			b.Fatal("must be flagged")
		}
	}
}

func BenchmarkCheckParallelWAN(b *testing.B) {
	// Steady-state parallel scaling of the check primitive on the medium
	// WAN with every FEC forced to the solver (FindAll + no differential
	// skip). The engine persists across iterations — the regime the
	// persistent worker pool targets (an operator session re-checking as
	// the update is edited): encoding, clausification, and the worker
	// forks are paid by the untimed warm-up call, and each timed call
	// re-decides every query on pooled solvers whose learned clauses and
	// saved phases match their static job slice. The cold first call is
	// encode-bound and favors 1 worker; FigParallelCheck records both
	// regimes in BENCH_parallel.json.
	w := netgenMediumOnce()
	after := w.Perturb(1, 5)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(itoa(workers)+"-workers", func(b *testing.B) {
			opts := core.DefaultOptions()
			opts.FindAllViolations = true
			opts.UseDifferential = false
			e := core.New(w.Net, after, w.Scope, opts)
			if checkWorkers(e, workers).Consistent { // warm: encode + fork
				b.Fatal("must be inconsistent")
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if checkWorkers(e, workers).Consistent {
					b.Fatal("must be inconsistent")
				}
			}
		})
	}
}
