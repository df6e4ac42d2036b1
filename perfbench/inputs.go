package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/newick"
	"repro/internal/phylo"
)

// inputDir is where a workload's generated inputs for one seed are cached.
func inputDir(work, workload string, seed int64) string {
	return filepath.Join(work, "inputs", fmt.Sprintf("%s-%d", workload, seed))
}

// clientRand seeds client i's op stream from the run seed.
func clientRand(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(i) + 1))
}

// yule generates an ultrametric pure-birth tree with n leaves and birth
// rate 1. It makes the same random draws as treegen.Yule — an exponential
// waiting time, then the lineage that splits — but records each lineage's
// birth time instead of lengthening every active lineage per step, so it
// runs in O(n) rather than O(n²) (treegen.Yule takes ~30 s at 100k leaves).
func yule(n int, r *rand.Rand) *phylo.Tree {
	root := &phylo.Node{}
	active := []*phylo.Node{root}
	born := []float64{0}
	now := 0.0
	for len(active) < n {
		now += r.ExpFloat64() / float64(len(active))
		i := r.Intn(len(active))
		p := active[i]
		p.Length = now - born[i]
		l, rn := &phylo.Node{}, &phylo.Node{}
		p.AddChild(l)
		p.AddChild(rn)
		active[i], born[i] = l, now
		active = append(active, rn)
		born = append(born, now)
	}
	now += r.ExpFloat64() / float64(len(active))
	for i, a := range active {
		a.Length = now - born[i]
		a.Name = fmt.Sprintf("taxon%06d", i)
	}
	root.Length = 0
	t := phylo.New(root)
	t.Reindex()
	return t
}

// cachedNewick returns the Newick text stored at <dir>/<file>, generating
// and storing it first when absent. Inputs are cached per (workload, seed)
// so repeated runs of one seed skip generation; generation is never part
// of the timed set-up.
func cachedNewick(dir, file string, gen func() *phylo.Tree) (string, error) {
	path := filepath.Join(dir, file)
	if raw, err := os.ReadFile(path); err == nil {
		return string(raw), nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	text := newick.String(gen())
	tmp := fmt.Sprintf("%s.tmp%d", path, os.Getpid())
	if err := os.WriteFile(tmp, []byte(text), 0o644); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, path); err != nil {
		return "", err
	}
	return text, nil
}

// goldTree is one generated tree as sent to crimsond (its Newick text) and
// as parsed back for the oracles, so both sides see identical lengths.
type goldTree struct {
	text   string
	tree   *phylo.Tree
	leaves []*phylo.Node
	// leafCount[id] and size[id] are the numbers of leaves and of nodes
	// under node id; dist[id] is its distance from the root.
	leafCount, size []int
	dist            []float64
}

// loadGold reads (or generates and caches) a seeded Yule tree with n
// leaves and parses it for the oracles.
func loadGold(dir, file string, n int, seed int64) (*goldTree, error) {
	text, err := cachedNewick(dir, file, func() *phylo.Tree {
		return yule(n, rand.New(rand.NewSource(seed)))
	})
	if err != nil {
		return nil, err
	}
	t, err := newick.Parse(text)
	if err != nil {
		return nil, fmt.Errorf("parsing cached input %s: %w", file, err)
	}
	g := &goldTree{text: text, tree: t, leaves: t.Leaves()}
	nodes := t.Nodes()
	g.leafCount = make([]int, len(nodes))
	g.size = make([]int, len(nodes))
	g.dist = make([]float64, len(nodes))
	for i := len(nodes) - 1; i >= 0; i-- { // reverse preorder: children first
		nd := nodes[i]
		g.size[nd.ID]++
		if nd.IsLeaf() {
			g.leafCount[nd.ID]++
		}
		if nd.Parent != nil {
			g.leafCount[nd.Parent.ID] += g.leafCount[nd.ID]
			g.size[nd.Parent.ID] += g.size[nd.ID]
		}
	}
	for _, nd := range nodes { // preorder: parents first
		if nd.Parent != nil {
			g.dist[nd.ID] = g.dist[nd.Parent.ID] + nd.Length
		}
	}
	t.NodeByName(g.leaves[0].Name) // build the name index now; oracles then only read it
	return g, nil
}

// pickLeaves draws k distinct leaf names (k is far below the leaf count).
func (g *goldTree) pickLeaves(r *rand.Rand, k int) []string {
	out := make([]string, 0, k)
	seen := make(map[int]bool, k)
	for len(out) < k {
		if i := r.Intn(len(g.leaves)); !seen[i] {
			seen[i] = true
			out = append(out, g.leaves[i].Name)
		}
	}
	return out
}

// cladeNodes lists the internal nodes whose clade spans lo..hi leaves.
func (g *goldTree) cladeNodes(lo, hi int) []*phylo.Node {
	var out []*phylo.Node
	for _, nd := range g.tree.Nodes() {
		if c := g.leafCount[nd.ID]; !nd.IsLeaf() && c >= lo && c <= hi {
			out = append(out, nd)
		}
	}
	return out
}

// cladePair returns two species whose LCA is v: one leaf from under each
// of two different children.
func cladePair(r *rand.Rand, v *phylo.Node) (string, string) {
	i := r.Intn(len(v.Children))
	j := (i + 1 + r.Intn(len(v.Children)-1)) % len(v.Children)
	return randomLeafUnder(r, v.Children[i]), randomLeafUnder(r, v.Children[j])
}

func randomLeafUnder(r *rand.Rand, n *phylo.Node) string {
	for !n.IsLeaf() {
		n = n.Children[r.Intn(len(n.Children))]
	}
	return n.Name
}

// perturb stands in for a reconstructed tree: a copy of t with a few leaf
// labels swapped, which moves those species to other places in the
// topology.
func perturb(t *phylo.Tree, r *rand.Rand, swaps int) *phylo.Tree {
	c := t.Clone()
	leaves := c.Leaves()
	for s := 0; s < swaps && len(leaves) > 1; s++ {
		i := r.Intn(len(leaves))
		j := (i + 1 + r.Intn(len(leaves)-1)) % len(leaves)
		leaves[i].Name, leaves[j].Name = leaves[j].Name, leaves[i].Name
	}
	c.Mutated()
	return c
}

// sequence returns n seeded nucleotides: species data as researchers
// attach it to leaves.
func sequence(r *rand.Rand, n int) []byte {
	const alphabet = "ACGT"
	var sb strings.Builder
	sb.Grow(n)
	for i := 0; i < n; i++ {
		sb.WriteByte(alphabet[r.Intn(4)])
	}
	return []byte(sb.String())
}
