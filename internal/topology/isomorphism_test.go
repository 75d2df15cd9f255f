package topology

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/radix-net/radixnet/internal/sparse"
)

func TestIsomorphismIdentity(t *testing.T) {
	g := fig4FNNT(t)
	perms, ok := IsomorphicByLayerPermutation(g, g, 0)
	if !ok {
		t.Fatal("a graph must be isomorphic to itself")
	}
	relabeled, err := g.Relabel(perms)
	if err != nil {
		t.Fatal(err)
	}
	if !relabeled.Equal(g) {
		t.Fatal("witness permutations do not reproduce the target")
	}
}

func TestIsomorphismDetectsRelabeling(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randFNNT(rng)
		// Random per-layer relabeling of g.
		perms := make([][]int, g.NumLayers())
		for i := range perms {
			perms[i] = rng.Perm(g.LayerSize(i))
		}
		h, err := g.Relabel(perms)
		if err != nil {
			return false
		}
		witness, ok := IsomorphicByLayerPermutation(g, h, 0)
		if !ok {
			return false
		}
		back, err := g.Relabel(witness)
		if err != nil {
			return false
		}
		return back.Equal(h)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestIsomorphismRejectsDifferentGraphs(t *testing.T) {
	// Same layer sizes and edge counts, structurally different: a cyclic
	// shift chain vs a sum-of-shifts pattern with differing path structure.
	a, err := New(sparse.SumOfShifts(4, []int{0, 1}), sparse.SumOfShifts(4, []int{0, 1}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(sparse.SumOfShifts(4, []int{0, 2}), sparse.SumOfShifts(4, []int{0, 2}))
	if err != nil {
		t.Fatal(err)
	}
	// a's two-hop reachability from node 0 is {0,1,2}; b's is {0,2} (offsets
	// 0/2 compose to 0/2/4≡0): different path-count multisets, hence not
	// isomorphic.
	if _, ok := IsomorphicByLayerPermutation(a, b, 0); ok {
		t.Fatal("non-isomorphic graphs reported isomorphic")
	}
}

func TestIsomorphismRejectsShapeMismatch(t *testing.T) {
	a, _ := New(sparse.Ones(2, 3))
	b, _ := New(sparse.Ones(3, 2))
	if _, ok := IsomorphicByLayerPermutation(a, b, 0); ok {
		t.Fatal("shape-mismatched graphs reported isomorphic")
	}
	c, _ := New(sparse.Ones(2, 3), sparse.Ones(3, 2))
	if _, ok := IsomorphicByLayerPermutation(a, c, 0); ok {
		t.Fatal("depth-mismatched graphs reported isomorphic")
	}
}

func TestIsomorphismRespectsNodeBudget(t *testing.T) {
	g := fig4FNNT(t)
	if _, ok := IsomorphicByLayerPermutation(g, g, 5); ok {
		t.Fatal("budget of 5 nodes must refuse an 11-node search")
	}
}

// TestErratumEaOrientationsIsomorphic is the executable form of erratum
// E-a: the mixed-radix topology built with the paper's literal
// eq. (2) orientation (edges j → j − n·ν) is isomorphic to the one built
// from the stated edge rule (j → j + n·ν) via the relabeling j ↦ −j mod N′.
func TestErratumEaOrientationsIsomorphic(t *testing.T) {
	n := 8
	offsets := [][]int{{0, 1}, {0, 2}, {0, 4}} // Fig. 1's layers
	plus := make([]*sparse.Pattern, len(offsets))
	minus := make([]*sparse.Pattern, len(offsets))
	for i, offs := range offsets {
		neg := make([]int, len(offs))
		for j, o := range offs {
			neg[j] = -o
		}
		plus[i] = sparse.SumOfShifts(n, offs)
		minus[i] = sparse.SumOfShifts(n, neg)
	}
	gPlus, err := New(plus...)
	if err != nil {
		t.Fatal(err)
	}
	gMinus, err := New(minus...)
	if err != nil {
		t.Fatal(err)
	}
	// Analytic witness: j ↦ (n − j) mod n at every layer.
	neg := make([]int, n)
	for j := range neg {
		neg[j] = (n - j) % n
	}
	perms := [][]int{neg, neg, neg, neg}
	relabeled, err := gPlus.Relabel(perms)
	if err != nil {
		t.Fatal(err)
	}
	if !relabeled.Equal(gMinus) {
		t.Fatal("negation relabeling does not map +shift topology to −shift topology")
	}
	// And the search finds a witness on its own.
	if _, ok := IsomorphicByLayerPermutation(gPlus, gMinus, 0); !ok {
		t.Fatal("orientation twins not detected as isomorphic")
	}
}

func TestRelabelValidation(t *testing.T) {
	g := fig4FNNT(t)
	if _, err := g.Relabel([][]int{{0, 1, 2}}); err == nil {
		t.Fatal("wrong permutation count accepted")
	}
}

func TestRelabelPreservesInvariants(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randFNNT(rng)
		perms := make([][]int, g.NumLayers())
		for i := range perms {
			perms[i] = rng.Perm(g.LayerSize(i))
		}
		h, err := g.Relabel(perms)
		if err != nil {
			return false
		}
		if h.NumEdges() != g.NumEdges() || h.Density() != g.Density() {
			return false
		}
		// Symmetry and path-connectedness are label-independent.
		mg, okg := g.Symmetric()
		mh, okh := h.Symmetric()
		if okg != okh {
			return false
		}
		if okg && mg.Cmp(mh) != 0 {
			return false
		}
		return g.PathConnected() == h.PathConnected()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
