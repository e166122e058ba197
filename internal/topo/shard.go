package topo

import "jinjing/internal/header"

// FECSource groups atomized traffic classes into forwarding
// equivalence classes (§4.1): two classes are equivalent iff the same
// paths forward them (Equation 2 specialized to destination-based
// forwarding). It stores only index vectors into the shared
// paths/classes slices, not materialized FEC values: a scope with F FECs
// over C classes and P paths costs O(C + Σ|paths per FEC|) int32s to
// index, while the FEC values themselves are materialized one at a time
// (Materialize), all at once (FECs), or one contiguous shard window at a
// time (Shards), bounding live memory by the largest shard rather than
// the whole scope.
//
// FECs appear in first-seen class order; a FEC's classes are ascending
// and its paths are in path order. Grouping on path-index vectors is
// grouping on path sets because the walk never yields two paths with
// the same interface sequence.
type FECSource struct {
	paths   []Path
	classes []header.Prefix

	classIdx [][]int32 // per FEC: ascending indices into classes
	pathIdx  [][]int32 // per FEC: ascending indices into paths
	classFEC []int32   // per class: its FEC, or -1 when no path forwards it
}

// NewFECSource groups classes into FECs from the per-path class sets of
// a forwarding walk (WalkPaths): fwd[pi] lists, ascending, the indices
// of the classes paths[pi] forwards. The sets are inverted into one
// path vector per class, and classes are grouped by equal vectors.
// Classes forwarded by no path are dropped — they never transit the
// scope. fwd is not retained.
func NewFECSource(paths []Path, classes []header.Prefix, fwd [][]int32) *FECSource {
	// Invert fwd into per-class path vectors, stored back to back:
	// class ci's vector is flat[start[ci]:start[ci+1]], ascending
	// because paths are visited in order.
	start := make([]int32, len(classes)+1)
	for _, cs := range fwd {
		for _, ci := range cs {
			start[ci+1]++
		}
	}
	for ci := range classes {
		start[ci+1] += start[ci]
	}
	flat := make([]int32, start[len(classes)])
	fill := append([]int32(nil), start[:len(classes)]...)
	for pi, cs := range fwd {
		for _, ci := range cs {
			flat[fill[ci]] = int32(pi)
			fill[ci]++
		}
	}

	s := &FECSource{paths: paths, classes: classes, classFEC: make([]int32, len(classes))}
	buckets := make(map[uint64][]int)
	for ci := range classes {
		vec := flat[start[ci]:start[ci+1]]
		if len(vec) == 0 {
			s.classFEC[ci] = -1
			continue
		}
		h := hashIdx(vec)
		gi := -1
		for _, g := range buckets[h] {
			if equalIdx(s.pathIdx[g], vec) {
				gi = g
				break
			}
		}
		if gi < 0 {
			gi = len(s.pathIdx)
			s.pathIdx = append(s.pathIdx, append([]int32(nil), vec...))
			s.classIdx = append(s.classIdx, nil)
			buckets[h] = append(buckets[h], gi)
		}
		s.classIdx[gi] = append(s.classIdx[gi], int32(ci))
		s.classFEC[ci] = int32(gi)
	}
	return s
}

// NumFECs returns the number of forwarding equivalence classes.
func (s *FECSource) NumFECs() int { return len(s.pathIdx) }

// Materialize builds FEC i with fresh Classes/Paths slices.
func (s *FECSource) Materialize(i int) FEC {
	f := FEC{
		Classes: make([]header.Prefix, len(s.classIdx[i])),
		Paths:   s.Paths(i),
	}
	for k, ci := range s.classIdx[i] {
		f.Classes[k] = s.classes[ci]
	}
	return f
}

// FECs materializes every FEC, in order.
func (s *FECSource) FECs() []FEC {
	out := make([]FEC, s.NumFECs())
	for i := range out {
		out[i] = s.Materialize(i)
	}
	return out
}

// Paths returns a fresh slice of the paths that forward FEC i.
func (s *FECSource) Paths(i int) []Path {
	out := make([]Path, len(s.pathIdx[i]))
	for k, pi := range s.pathIdx[i] {
		out[k] = s.paths[pi]
	}
	return out
}

// FECOf returns the index of the FEC holding classes[ci], or -1 when no
// path forwards that class.
func (s *FECSource) FECOf(ci int) int { return int(s.classFEC[ci]) }

// ShardRange is a half-open range [Lo, Hi) of FEC indices forming one
// shard.
type ShardRange struct {
	Lo, Hi int
}

// Shards partitions the FEC index space into at most k contiguous
// ranges, weight-balanced by per-FEC class+path counts (a proxy for
// formula size). Because the engine's classes are sorted by destination
// prefix and FECs appear in first-seen class order, contiguous FEC
// ranges correspond to destination-prefix subtrees of the scope's
// routable space — the partition axis named in §4.1's decomposition.
// The partition is deterministic; fewer than k ranges are returned when
// there are fewer FECs than shards.
func (s *FECSource) Shards(k int) []ShardRange {
	n := s.NumFECs()
	if n == 0 {
		return nil
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	var total int64
	weights := make([]int64, n)
	for i := range weights {
		w := int64(len(s.classIdx[i]) + len(s.pathIdx[i]))
		weights[i] = w
		total += w
	}
	out := make([]ShardRange, 0, k)
	lo := 0
	var acc, spent int64
	for i := 0; i < n; i++ {
		acc += weights[i]
		rem := k - len(out)
		if rem <= 1 {
			break
		}
		// Close the shard once it reaches an even split of the weight
		// still unassigned — but keep at least one FEC per open shard,
		// and close unconditionally once only that minimum remains.
		full := acc >= (total-spent)/int64(rem) && n-(i+1) >= rem-1
		if full || n-(i+1) == rem-1 {
			out = append(out, ShardRange{Lo: lo, Hi: i + 1})
			lo = i + 1
			spent += acc
			acc = 0
		}
	}
	return append(out, ShardRange{Lo: lo, Hi: n})
}

// hashIdx is FNV-1a over the little-endian bytes of an index vector.
func hashIdx(idx []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range idx {
		for s := 0; s < 32; s += 8 {
			h ^= uint64(byte(v >> s))
			h *= 1099511628211
		}
	}
	return h
}

func equalIdx(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
