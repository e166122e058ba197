package topo

import (
	"fmt"
	"strings"

	"jinjing/internal/header"
)

// Hop is one device traversal on a path: the packet enters through In and
// leaves through Out.
type Hop struct {
	In  *Interface
	Out *Interface
}

// Path is a border-to-border route through the scope (§3.3): the first
// hop's In and the last hop's Out are border interfaces.
type Path struct {
	Hops []Hop
}

// Interfaces flattens the path into the paper's interface-list notation,
// e.g. ⟨A1, A4, D1, D3⟩: alternating ingress and egress interfaces.
func (p Path) Interfaces() []*Interface {
	out := make([]*Interface, 0, 2*len(p.Hops))
	for _, h := range p.Hops {
		out = append(out, h.In, h.Out)
	}
	return out
}

// Bindings returns the (interface, direction) pairs whose ACLs apply to
// traffic on this path, in traversal order. Unbound (nil-ACL) pairs are
// included too, because fix/generate may place new ACLs on them.
func (p Path) Bindings() []ACLBinding {
	out := make([]ACLBinding, 0, 2*len(p.Hops))
	for _, h := range p.Hops {
		out = append(out, ACLBinding{Iface: h.In, Dir: In}, ACLBinding{Iface: h.Out, Dir: Out})
	}
	return out
}

// Src returns the border interface where the path enters the scope.
func (p Path) Src() *Interface { return p.Hops[0].In }

// Dst returns the border interface where the path leaves the scope.
func (p Path) Dst() *Interface { return p.Hops[len(p.Hops)-1].Out }

// Permits evaluates the path decision model c_p(h) (Equation 1): the
// conjunction of every on-path ACL's decision on the packet.
func (p Path) Permits(pkt header.Packet) bool {
	for _, h := range p.Hops {
		if !h.In.Permits(In, pkt) || !h.Out.Permits(Out, pkt) {
			return false
		}
	}
	return true
}

// String renders the path in the paper's ⟨A1, A4, D1, D3⟩ notation.
func (p Path) String() string {
	parts := make([]string, 0, 2*len(p.Hops))
	for _, i := range p.Interfaces() {
		parts = append(parts, i.ID())
	}
	return "<" + strings.Join(parts, ", ") + ">"
}

// Key returns a canonical identity string for deduplication.
func (p Path) Key() string { return p.String() }

// maxPathDevices bounds structural path enumeration; cloud WAN paths are
// short (the paper's footnote 1: paths are enumerable in polynomial time
// over the routing DAG).
const maxPathDevices = 12

// AllPaths enumerates P_Ω, the paths of the scope's routing DAG: every
// loop-free border-to-border route that the forwarding tables support for
// at least one class of entering traffic (the paper's footnote 1 — paths
// come "from the perspective of routing DAGs", which keeps enumeration
// polynomial in layered networks by pruning valley routes no traffic can
// take). Each device traversal goes from an ingress interface to an
// egress interface that either leaves the scope (ending the path) or
// links to another in-scope device. Results are deterministic.
func (n *Network) AllPaths(s *Scope) []Path {
	paths, _ := n.WalkPaths(s, n.EnteringTraffic(s))
	return paths
}

// WalkPaths is AllPaths over the given destination classes, returning
// with each path the ascending indices of the classes it forwards (the
// 𝒴 sets of Algorithm 1, read off the walk rather than re-scanned per
// class). The classes must be atomic with respect to every in-scope FIB:
// EnteringTraffic's output or a refinement of it. A refinement yields
// the same path set, because every refined class has its parent's LPM
// result at every device; NewFECSource groups the classes from the sets.
func (n *Network) WalkPaths(s *Scope, classes []header.Prefix) ([]Path, [][]int32) {
	w := &pathWalk{n: n, s: s, classes: classes, devs: map[*Device]*walkDevice{}}
	all := make([]int32, len(classes))
	for i := range all {
		all[i] = int32(i)
	}
	for _, entry := range n.BorderInterfaces(s) {
		if !s.AllowsEntry(entry.ID()) {
			continue
		}
		// Traffic can enter here if the interface is an edge or its
		// upstream is out of scope.
		up := n.Upstream(entry)
		if up != nil && s.ContainsDevice(up.Device.Name) {
			continue // this border interface only sends traffic out
		}
		w.extend(entry, all)
	}
	return w.paths, w.fwd
}

// pathWalk is the state of one WalkPaths call.
type pathWalk struct {
	n       *Network
	s       *Scope
	classes []header.Prefix
	devs    map[*Device]*walkDevice
	hops    []Hop // the partial path, reused across branches
	paths   []Path
	fwd     [][]int32 // per path: ascending indices of the classes it forwards
}

// walkDevice is a device's state for the length of one walk: its
// interfaces in name order, where each one leads, and the memoized LPM
// egress of every class that has reached it.
type walkDevice struct {
	dev    *Device
	ifaces []*Interface
	peers  []*Interface // peers[k] is the ingress ifaces[k] links to
	exits  []bool       // exits[k]: leaving through ifaces[k] leaves the scope
	pos    map[*Interface]int32
	egress [][]int32 // per class: positions in ifaces of its LPM egress set
	known  []bool    // per class: egress is computed
	onPath bool
}

func (w *pathWalk) device(d *Device) *walkDevice {
	if wd, ok := w.devs[d]; ok {
		return wd
	}
	wd := &walkDevice{
		dev:    d,
		ifaces: d.SortedInterfaces(),
		pos:    make(map[*Interface]int32, len(d.Interfaces)),
		egress: make([][]int32, len(w.classes)),
		known:  make([]bool, len(w.classes)),
	}
	wd.peers = make([]*Interface, len(wd.ifaces))
	wd.exits = make([]bool, len(wd.ifaces))
	for k, o := range wd.ifaces {
		wd.pos[o] = int32(k)
		peer := w.n.Peer(o)
		wd.peers[k] = peer
		// A network edge or an out-of-scope peer ends the path.
		wd.exits[k] = peer == nil || !w.s.ContainsDevice(peer.Device.Name)
	}
	w.devs[d] = wd
	return wd
}

// egressOf returns the positions of class ci's LPM egress interfaces on
// the device, ECMP duplicates removed.
func (w *pathWalk) egressOf(wd *walkDevice, ci int32) []int32 {
	if !wd.known[ci] {
		var ks []int32
		for _, o := range wd.dev.LongestMatchClass(w.classes[ci]) {
			if k, ok := wd.pos[o]; ok && !containsIdx(ks, k) {
				ks = append(ks, k)
			}
		}
		wd.egress[ci], wd.known[ci] = ks, true
	}
	return wd.egress[ci]
}

func containsIdx(s []int32, v int32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// extend extends the partial path w.hops entering in's device through
// in. alive holds, ascending, the classes the forwarding tables route
// along the partial path; a branch with no alive classes is pruned.
func (w *pathWalk) extend(in *Interface, alive []int32) {
	wd := w.device(in.Device)
	if wd.onPath || len(w.hops) >= maxPathDevices {
		return
	}
	wd.onPath = true
	defer func() { wd.onPath = false }()

	// Bucket the alive classes by the egress this device forwards them
	// to: one LPM lookup per class per visit. Each bucket is a capped
	// window of one allocation, so buckets never overwrite each other,
	// and it stays ascending because alive is.
	counts := make([]int32, len(wd.ifaces)+1)
	for _, ci := range alive {
		for _, k := range w.egressOf(wd, ci) {
			counts[k+1]++
		}
	}
	for k := range wd.ifaces {
		counts[k+1] += counts[k]
	}
	flat := make([]int32, counts[len(wd.ifaces)])
	buckets := make([][]int32, len(wd.ifaces))
	for k := range buckets {
		buckets[k] = flat[counts[k]:counts[k]:counts[k+1]]
	}
	for _, ci := range alive {
		for _, k := range w.egressOf(wd, ci) {
			buckets[k] = append(buckets[k], ci)
		}
	}

	for k, o := range wd.ifaces {
		next := buckets[k]
		if o == in || len(next) == 0 {
			continue
		}
		w.hops = append(w.hops, Hop{In: in, Out: o})
		if wd.exits[k] {
			w.paths = append(w.paths, Path{Hops: append([]Hop(nil), w.hops...)})
			w.fwd = append(w.fwd, next)
		} else {
			w.extend(wd.peers[k], next)
		}
		w.hops = w.hops[:len(w.hops)-1]
	}
}

// ForwardsClass reports whether the network's forwarding tables route the
// destination-prefix class along path p: at every hop, the device's LPM
// for the class selects the hop's egress interface. class must be atomic
// with respect to every on-path FIB.
func (p Path) ForwardsClass(class header.Prefix) bool {
	for _, h := range p.Hops {
		outs := h.In.Device.LongestMatchClass(class)
		found := false
		for _, o := range outs {
			if o == h.Out {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Validate performs structural sanity checks on a path.
func (p Path) Validate(n *Network) error {
	if len(p.Hops) == 0 {
		return fmt.Errorf("topo: empty path")
	}
	for i, h := range p.Hops {
		if h.In.Device != h.Out.Device {
			return fmt.Errorf("topo: hop %d spans devices %s and %s", i, h.In.Device.Name, h.Out.Device.Name)
		}
		if i > 0 {
			prev := p.Hops[i-1]
			if n.Peer(prev.Out) != h.In {
				return fmt.Errorf("topo: hop %d not linked from previous hop", i)
			}
		}
	}
	return nil
}
