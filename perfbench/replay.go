package main

// The reference semantics every output is judged by. It is written
// against the data model alone: ACL rules are evaluated by a plain
// first-match loop over field comparisons, and a path's decision is
// the conjunction of its bindings' decisions (the paper's Equation 1).
// Nothing here calls the encoder, the packet-set engine, or a solver —
// and not acl.Decide or topo.Path.Permits either — so a bug in a layer
// the program's own differential lanes share cannot vouch for itself.

import (
	"fmt"
	"math/rand"
	"strings"

	"jinjing/internal/acl"
	"jinjing/internal/header"
	"jinjing/internal/topo"
)

// aclIndex maps "device:interface" to the ACLs bound in each direction
// of one network snapshot (nil = no ACL, which permits).
type aclIndex map[string][2]*acl.ACL

func indexACLs(n *topo.Network) aclIndex {
	idx := aclIndex{}
	for dn, d := range n.Devices {
		for in, i := range d.Interfaces {
			idx[dn+":"+in] = i.ACLs
		}
	}
	return idx
}

// with returns a copy of idx with one binding's ACL replaced.
func (idx aclIndex) with(ifaceID string, dir topo.Direction, a *acl.ACL) aclIndex {
	out := make(aclIndex, len(idx))
	for k, v := range idx {
		out[k] = v
	}
	v := out[ifaceID]
	v[dir] = a
	out[ifaceID] = v
	return out
}

// refPath is a path as its alternating ingress/egress interface IDs.
type refPath []string

func pathOf(p topo.Path) refPath {
	out := make(refPath, 0, 2*len(p.Hops))
	for _, h := range p.Hops {
		out = append(out, h.In.ID(), h.Out.ID())
	}
	return out
}

// parsePath reads the "<a:x, b:y, ...>" rendering of a path.
func parsePath(s string) (refPath, error) {
	if !strings.HasPrefix(s, "<") || !strings.HasSuffix(s, ">") {
		return nil, fmt.Errorf("path %q: not <...>", s)
	}
	parts := strings.Split(s[1:len(s)-1], ", ")
	if len(parts) == 0 || len(parts)%2 != 0 {
		return nil, fmt.Errorf("path %q: odd interface count", s)
	}
	return refPath(parts), nil
}

// parsePacket reads the "a.b.c.d:p -> a.b.c.d:p proto n" rendering of
// a packet.
func parsePacket(s string) (header.Packet, error) {
	var s1, s2, s3, s4, d1, d2, d3, d4 uint32
	var sp, dp uint16
	var proto uint8
	n, err := fmt.Sscanf(s, "%d.%d.%d.%d:%d -> %d.%d.%d.%d:%d proto %d",
		&s1, &s2, &s3, &s4, &sp, &d1, &d2, &d3, &d4, &dp, &proto)
	if err != nil || n != 11 {
		return header.Packet{}, fmt.Errorf("packet %q: %v", s, err)
	}
	return header.Packet{
		SrcIP: s1<<24 | s2<<16 | s3<<8 | s4, DstIP: d1<<24 | d2<<16 | d3<<8 | d4,
		SrcPort: sp, DstPort: dp, Proto: proto,
	}, nil
}

func prefixHas(p header.Prefix, addr uint32) bool {
	if p.Len == 0 {
		return true
	}
	shift := uint(32 - p.Len)
	return addr>>shift == p.Addr>>shift
}

func matchRef(m header.Match, p header.Packet) bool {
	return prefixHas(m.Src, p.SrcIP) && prefixHas(m.Dst, p.DstIP) &&
		m.SrcPort.Lo <= p.SrcPort && p.SrcPort <= m.SrcPort.Hi &&
		m.DstPort.Lo <= p.DstPort && p.DstPort <= m.DstPort.Hi &&
		m.Proto.Lo <= p.Proto && p.Proto <= m.Proto.Hi
}

// permitsRef is the first-match decision of one ACL.
func permitsRef(a *acl.ACL, p header.Packet) bool {
	if a == nil {
		return true
	}
	for _, r := range a.Rules {
		if matchRef(r.Match, p) {
			return r.Action == acl.Permit
		}
	}
	return a.Default == acl.Permit
}

// pathPermits is the path decision: every hop's ingress ACL and egress
// ACL must permit.
func (idx aclIndex) pathPermits(path refPath, p header.Packet) (bool, error) {
	for i, id := range path {
		acls, ok := idx[id]
		if !ok {
			return false, fmt.Errorf("unknown interface %q", id)
		}
		dir := topo.In
		if i%2 == 1 {
			dir = topo.Out
		}
		if !permitsRef(acls[dir], p) {
			return false, nil
		}
	}
	return true, nil
}

// witness is a violation as the reference checks it.
type witness struct {
	pkt     header.Packet
	classes []header.Prefix
	paths   []refPath
}

// checkWitness accepts a violation only if its packet lies in one of
// its classes and its decision differs before vs after on every path
// listed.
func checkWitness(before, after aclIndex, w witness) error {
	if len(w.paths) == 0 {
		return fmt.Errorf("witness %v lists no path", w.pkt)
	}
	inClass := len(w.classes) == 0
	for _, c := range w.classes {
		inClass = inClass || prefixHas(c, w.pkt.DstIP)
	}
	if !inClass {
		return fmt.Errorf("witness %v lies outside its classes %v", w.pkt, w.classes)
	}
	for _, p := range w.paths {
		b, err := before.pathPermits(p, w.pkt)
		if err != nil {
			return err
		}
		a, err := after.pathPermits(p, w.pkt)
		if err != nil {
			return err
		}
		if a == b {
			return fmt.Errorf("witness %v: path %v decides %v both before and after", w.pkt, p, a)
		}
	}
	return nil
}

// checkVerdict accepts a check's outcome only if it is complete, its
// verdict agrees with its violation count, and every witness replays.
func checkVerdict(complete bool, unknown int, consistent bool, ws []witness, before, after aclIndex) error {
	if !complete {
		return fmt.Errorf("check incomplete: %d unknown FECs", unknown)
	}
	if consistent != (len(ws) == 0) {
		return fmt.Errorf("verdict consistent=%v with %d violations", consistent, len(ws))
	}
	for _, w := range ws {
		if err := checkWitness(before, after, w); err != nil {
			return err
		}
	}
	return nil
}

// checkUndone accepts a fixed network only if every witness's paths
// decide on its packet as they did before the update.
func checkUndone(before, fixed aclIndex, ws []witness) error {
	for _, w := range ws {
		for _, p := range w.paths {
			b, err := before.pathPermits(p, w.pkt)
			if err != nil {
				return err
			}
			f, err := fixed.pathPermits(p, w.pkt)
			if err != nil {
				return err
			}
			if f != b {
				return fmt.Errorf("fixed network still decides %v on %v along %v (before: %v)", f, w.pkt, p, b)
			}
		}
	}
	return nil
}

// openIntent is a control-open requirement as the reference checks
// it: packets matching dst on paths entering at a From interface and
// leaving at a To interface must be permitted.
type openIntent struct {
	dst      header.Prefix
	from, to map[string]bool
}

func (o openIntent) covers(p refPath, pkt header.Packet) bool {
	return o.from[p[0]] && o.to[p[len(p)-1]] && prefixHas(o.dst, pkt.DstIP)
}

// checkGenerated samples packets on the paths of each FEC and accepts
// the generated network only if, for every sample, it permits when an
// open intent covers the sample and otherwise decides as the network
// did before the update. Samples are drawn inside the rules bound on
// the path (so rule boundaries get exercised) intersected with the
// FEC's classes, plus, for every open intent, inside the intent's
// destination. It returns the number of samples checked.
func checkGenerated(before, gen aclIndex, fecs []topo.FEC, opens []openIntent, rng *rand.Rand, pathsPerFEC, perPath int) (int, error) {
	samples := 0
	for _, f := range fecs {
		paths := f.Paths
		if len(paths) > pathsPerFEC {
			picked := make([]topo.Path, 0, pathsPerFEC)
			for _, i := range rng.Perm(len(paths))[:pathsPerFEC] {
				picked = append(picked, paths[i])
			}
			paths = picked
		}
		for _, tp := range paths {
			p := pathOf(tp)
			var pkts []header.Packet
			for k := 0; k < perPath; k++ {
				class := f.Classes[rng.Intn(len(f.Classes))]
				pkts = append(pkts, samplePacket(rng, class, pathRules(before, gen, p)))
			}
			for _, o := range opens {
				for _, c := range f.Classes {
					if inter, ok := c.Intersect(o.dst); ok && o.from[p[0]] && o.to[p[len(p)-1]] {
						pkts = append(pkts, samplePacket(rng, inter, nil))
					}
				}
			}
			for _, pkt := range pkts {
				samples++
				g, err := gen.pathPermits(p, pkt)
				if err != nil {
					return samples, err
				}
				want, err := before.pathPermits(p, pkt)
				if err != nil {
					return samples, err
				}
				for _, o := range opens {
					if o.covers(p, pkt) {
						want = true
					}
				}
				if g != want {
					return samples, fmt.Errorf("generated network decides %v on %v along %v, want %v", g, pkt, p, want)
				}
			}
		}
	}
	return samples, nil
}

// pathRules collects the rule matches bound along a path in either
// snapshot.
func pathRules(a, b aclIndex, p refPath) []header.Match {
	var out []header.Match
	for i, id := range p {
		dir := topo.In
		if i%2 == 1 {
			dir = topo.Out
		}
		for _, idx := range []aclIndex{a, b} {
			if x := idx[id][dir]; x != nil {
				for _, r := range x.Rules {
					out = append(out, r.Match)
				}
			}
		}
	}
	return out
}

// samplePacket draws a packet with its destination in class: half the
// time inside a random one of the given rule matches (where it overlaps
// the class), otherwise uniformly.
func samplePacket(rng *rand.Rand, class header.Prefix, rules []header.Match) header.Packet {
	m := header.MatchAll
	if len(rules) > 0 && rng.Intn(2) == 0 {
		m = rules[rng.Intn(len(rules))]
	}
	dst := class
	if m.Dst.Overlaps(class) && m.Dst.Len > class.Len {
		dst = m.Dst
	}
	return header.Packet{
		SrcIP:   randIn(rng, m.Src),
		DstIP:   randIn(rng, dst),
		SrcPort: randRange(rng, m.SrcPort.Lo, m.SrcPort.Hi),
		DstPort: randRange(rng, m.DstPort.Lo, m.DstPort.Hi),
		Proto:   uint8(randRange(rng, uint16(m.Proto.Lo), uint16(m.Proto.Hi))),
	}
}

func randIn(rng *rand.Rand, p header.Prefix) uint32 {
	if p.Len >= 32 {
		return p.Addr
	}
	host := rng.Uint32() & (uint32(1)<<uint(32-p.Len) - 1)
	if p.Len == 0 {
		return rng.Uint32()
	}
	return p.Addr | host
}

func randRange(rng *rand.Rand, lo, hi uint16) uint16 {
	return lo + uint16(rng.Intn(int(hi)-int(lo)+1))
}

// witnessOf converts an engine violation to the reference form.
func witnessOf(pkt header.Packet, classes []header.Prefix, paths []topo.Path) witness {
	w := witness{pkt: pkt, classes: classes}
	for _, p := range paths {
		w.paths = append(w.paths, pathOf(p))
	}
	return w
}

// decoy returns a corrupted copy of w that the reference must reject:
// first it tries moving the packet, inside its classes, to one every
// listed path decides identically before and after; failing that
// (an edit that flips a whole class leaves no such packet), it keeps
// the packet and lists instead one of the other paths on which the
// packet's decision does not change. ok is false when neither exists.
func decoy(rng *rand.Rand, before, after aclIndex, w witness, others []refPath) (witness, bool) {
	unchanged := func(pkt header.Packet, paths []refPath) bool {
		for _, p := range paths {
			b, errB := before.pathPermits(p, pkt)
			a, errA := after.pathPermits(p, pkt)
			if errB != nil || errA != nil || a != b {
				return false
			}
		}
		return true
	}
	for try := 0; try < 500 && len(w.classes) > 0; try++ {
		pkt := w.pkt
		pkt.DstIP = randIn(rng, w.classes[rng.Intn(len(w.classes))])
		pkt.SrcIP = rng.Uint32()
		pkt.DstPort = uint16(rng.Intn(65536))
		if unchanged(pkt, w.paths) {
			out := w
			out.pkt = pkt
			return out, true
		}
	}
	for _, p := range others {
		if unchanged(w.pkt, []refPath{p}) {
			out := w
			out.paths = []refPath{p}
			return out, true
		}
	}
	return w, false
}
