package topology

import (
	"sort"

	"github.com/radix-net/radixnet/internal/sparse"
)

// IsomorphicByLayerPermutation reports whether two FNNTs are isomorphic as
// layered graphs: whether there exist per-layer node relabelings
// π0, …, πn such that relabeling g's layers turns every adjacency
// submatrix of g into the corresponding submatrix of h. The paper's
// definitions identify topologies "up to a permutation of indices"; this
// checker makes that identification executable — in particular it proves
// that the two orientations of eq. (2) (erratum E-a, see TestErratumEaOrientationsIsomorphic) generate
// isomorphic mixed-radix topologies.
//
// The search uses degree-profile partitioning to prune, then backtracking
// over candidate permutations layer by layer. It is intended for the
// small-to-medium topologies of tests and examples (cost grows with the
// automorphism richness of the graph); it returns the witnessing
// permutations on success.
func IsomorphicByLayerPermutation(g, h *FNNT, maxNodes int) ([][]int, bool) {
	if g.NumSubs() != h.NumSubs() {
		return nil, false
	}
	if maxNodes > 0 && (g.NumNodes() > maxNodes || h.NumNodes() > maxNodes) {
		return nil, false
	}
	for i := 0; i < g.NumLayers(); i++ {
		if g.LayerSize(i) != h.LayerSize(i) {
			return nil, false
		}
	}
	for i := 0; i < g.NumSubs(); i++ {
		if g.Sub(i).NNZ() != h.Sub(i).NNZ() {
			return nil, false
		}
	}

	n := g.NumLayers()
	perms := make([][]int, n)
	// Backtrack over layers: choose π0, then for each subsequent layer
	// choose πi consistent with the already-fixed πi−1 on submatrix i−1.
	var solve func(layer int) bool
	solve = func(layer int) bool {
		if layer == n {
			return true
		}
		size := g.LayerSize(layer)
		candidates := permCandidates(g, h, layer)
		perm := make([]int, size)
		used := make([]bool, size)
		var assign func(node int) bool
		assign = func(node int) bool {
			if node == size {
				perms[layer] = append([]int(nil), perm...)
				if layer > 0 && !consistent(g.Sub(layer-1), h.Sub(layer-1), perms[layer-1], perm) {
					return false
				}
				if solve(layer + 1) {
					return true
				}
				return false
			}
			for _, cand := range candidates[node] {
				if used[cand] {
					continue
				}
				perm[node] = cand
				used[cand] = true
				// Prune early against the previous layer when it is already
				// fixed; the full identity is re-verified at completion.
				ok := true
				if layer > 0 {
					ok = partialConsistent(g.Sub(layer-1), h.Sub(layer-1), perms[layer-1], node, cand)
				}
				if ok && assign(node+1) {
					return true
				}
				used[cand] = false
			}
			return false
		}
		return assign(0)
	}
	if solve(0) {
		return perms, true
	}
	return nil, false
}

// permCandidates returns, per node of g's layer, the h-nodes with matching
// degree profile (in-degree from the previous layer, out-degree into the
// next), the cheap invariant that prunes most of the search space.
func permCandidates(g, h *FNNT, layer int) [][]int {
	size := g.LayerSize(layer)
	profileG := degreeProfiles(g, layer)
	profileH := degreeProfiles(h, layer)
	byProfile := make(map[[2]int][]int)
	for v := 0; v < size; v++ {
		byProfile[profileH[v]] = append(byProfile[profileH[v]], v)
	}
	out := make([][]int, size)
	for u := 0; u < size; u++ {
		out[u] = byProfile[profileG[u]]
	}
	return out
}

func degreeProfiles(g *FNNT, layer int) [][2]int {
	size := g.LayerSize(layer)
	profiles := make([][2]int, size)
	if layer > 0 {
		in := g.Sub(layer - 1).ColDegrees()
		for v := 0; v < size; v++ {
			profiles[v][0] = in[v]
		}
	}
	if layer < g.NumSubs() {
		sub := g.Sub(layer)
		for v := 0; v < size; v++ {
			profiles[v][1] = sub.RowDegree(v)
		}
	}
	return profiles
}

// partialConsistent checks that mapping node→cand in the current layer
// preserves adjacency from the (already fully mapped) previous layer.
func partialConsistent(gw, hw *sparse.Pattern, prevPerm []int, node, cand int) bool {
	// For every previous-layer node u: g has edge (u, node) iff h has edge
	// (prevPerm[u], cand).
	for u := 0; u < gw.Rows(); u++ {
		if gw.Has(u, node) != hw.Has(prevPerm[u], cand) {
			return false
		}
	}
	return true
}

// consistent verifies the full submatrix identity πprev(gw)πcur = hw.
func consistent(gw, hw *sparse.Pattern, prevPerm, curPerm []int) bool {
	for u := 0; u < gw.Rows(); u++ {
		gRow := gw.Row(u)
		mapped := make([]int, 0, len(gRow))
		for _, c := range gRow {
			mapped = append(mapped, curPerm[c])
		}
		sort.Ints(mapped)
		hRow := hw.Row(prevPerm[u])
		if len(mapped) != len(hRow) {
			return false
		}
		for i, c := range mapped {
			if hRow[i] != c {
				return false
			}
		}
	}
	return true
}

// Relabel applies per-layer node permutations to an FNNT: node v of layer i
// becomes node perms[i][v]. It is the constructive side of
// IsomorphicByLayerPermutation — Relabel(g, perms) equals h whenever the
// checker returns perms as a witness.
func (g *FNNT) Relabel(perms [][]int) (*FNNT, error) {
	if len(perms) != g.NumLayers() {
		return nil, ErrShape
	}
	subs := make([]*sparse.Pattern, g.NumSubs())
	for i := 0; i < g.NumSubs(); i++ {
		w := g.Sub(i)
		coo, err := sparse.NewCOO(w.Rows(), w.Cols())
		if err != nil {
			return nil, err
		}
		for r := 0; r < w.Rows(); r++ {
			for _, c := range w.Row(r) {
				if err := coo.Add(perms[i][r], perms[i+1][c]); err != nil {
					return nil, err
				}
			}
		}
		subs[i] = coo.Pattern()
	}
	return New(subs...)
}
