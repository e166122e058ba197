package main

// Seeded input generation. Every input is a pure function of the
// workload seed; the program under test receives only the generated
// networks, programs, and request bodies.

import (
	"fmt"
	"strings"

	"jinjing/internal/acl"
	"jinjing/internal/experiments"
	"jinjing/internal/header"
	"jinjing/internal/netgen"
	"jinjing/internal/topo"
)

// tier is the network size every workload runs at: the paper's §8
// middle cut, the size the ROADMAP's re-anchor numbers are quoted at.
const tier = netgen.Medium

// workers is the engine fan-out on every call and the benchmark's own
// concurrency bound, sized for a 2-CPU machine.
const workers = 2

// subSeed derives the seed of the k-th input of kind from the workload
// seed, so inputs of different kinds never share a random stream.
func subSeed(seed int64, kind, k int) int64 {
	return seed*1_000_003 + int64(kind)*10_007 + int64(k)
}

// buildWAN builds the k-th network of the benchmark: netgen's medium
// WAN at the §8 experiments' seed (k = 0) or the seeds after it. The
// networks are fixed; the workload seed draws what is done to them —
// updates, edits, and intents — the way an operator varies changes
// against a given network. Cost follows the WAN's ACL contents with a
// heavy tail (generate migration took 2.8 to 15.2 s across medium WANs
// from six netgen seeds), so runs on seed-drawn WANs would report which
// WAN they drew more than what the code costs.
func buildWAN(k int) *netgen.WAN {
	return netgen.Build(netgen.DefaultConfig(tier, experiments.Seed+int64(k)))
}

// aclBindingIDs lists every generated ACL binding of the WAN.
func aclBindingIDs(w *netgen.WAN) []string {
	return append(append(append([]string{}, w.EdgeACLs...), w.AggACLs...), w.CoreACLs...)
}

// wholeScopeProgram is the operator's program for a whole-WAN update:
// every device in scope, and every ingress binding both taken from the
// supplied updated snapshot and allowed to change (a fix may then place
// rules wherever an edit may have landed).
func wholeScopeProgram(w *netgen.WAN, command string) string {
	devs := append(append(append([]string{}, w.CoreNames...), w.AggNames...), w.EdgeNames...)
	var scope, bindings []string
	for _, d := range devs {
		scope = append(scope, d+":*")
		bindings = append(bindings, d+":*-in")
	}
	return fmt.Sprintf("scope %s\nallow %s\nmodify %s\n%s\n",
		strings.Join(scope, ", "), strings.Join(bindings, ", "), strings.Join(bindings, ", "), command)
}

// editSite is one single-ACL edit of an updated snapshot: a deny rule
// for one announced prefix put on top of one binding's ACL.
type editSite struct {
	binding string // netgen binding ID
	deny    header.Prefix
	layer   string // "edge" or "agg"
}

// editSites alternates edge-layer sites (an edge uplink's ingress:
// only the paths toward that edge cross it, so few FECs change) with
// aggregation-layer sites (an agg downlink's ACL, which most FECs
// cross), n sites in all, each with its own denied prefix.
func editSites(w *netgen.WAN, n int, pick func(int) int) []editSite {
	pool := w.AllPrefixes()
	out := make([]editSite, n)
	for i := range out {
		s := editSite{deny: pool[pick(len(pool))]}
		if i%2 == 0 {
			s.layer = "edge"
			s.binding = fmt.Sprintf("%s:u%d:in", w.EdgeNames[pick(len(w.EdgeNames))], pick(w.Config.AggsPerEdge))
		} else {
			s.layer = "agg"
			s.binding = w.AggACLs[pick(len(w.AggACLs))]
		}
		out[i] = s
	}
	return out
}

// editedACL returns the binding's ACL in n with the site's deny rule on
// top (a fresh ACL; n is not modified).
func (s editSite) editedACL(n *topo.Network) (*topo.Interface, topo.Direction, *acl.ACL, error) {
	bs, err := netgen.Bindings(n, []string{s.binding})
	if err != nil {
		return nil, 0, nil, err
	}
	b := bs[0]
	a := acl.PermitAll()
	if cur := b.Iface.ACL(b.Dir); cur != nil {
		a = cur.Clone()
	}
	a.Rules = append([]acl.Rule{{Action: acl.Deny, Match: header.DstMatch(s.deny)}}, a.Rules...)
	return b.Iface, b.Dir, a, nil
}
