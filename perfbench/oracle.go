package main

import (
	"bytes"
	"fmt"
	"slices"
	"sort"

	"repro/client"
	"repro/internal/core"
	"repro/internal/newick"
	"repro/internal/phylo"
	"repro/internal/project"
	"repro/internal/treecmp"
)

// oracle answers every query in memory, from the generated tree, with the
// implementations the repository already trusts: the internal/core label
// index for LCA, the internal/project planner for projection and treecmp
// for Robinson–Foulds. The benchmark checks each answer crimsond gave
// against it after the timed phase.
type oracle struct {
	g       *goldTree
	ix      *core.Index
	planner *project.Planner
}

func newOracle(g *goldTree) (*oracle, error) {
	ix, err := core.Build(g.tree, core.DefaultFanout)
	if err != nil {
		return nil, err
	}
	return &oracle{g: g, ix: ix, planner: project.NewPlanner(g.tree, ix)}, nil
}

func (o *oracle) leaf(name string) (*phylo.Node, error) {
	n := o.g.tree.NodeByName(name)
	if n == nil || !n.IsLeaf() {
		return nil, fmt.Errorf("%q is not a leaf of the stored tree", name)
	}
	return n, nil
}

// checkNode compares a returned node row with the oracle's node id.
func (o *oracle) checkNode(want int, got client.Node) error {
	if got.ID != want || got.Size != o.g.size[want] || got.Leaf != (o.g.size[want] == 1) {
		return fmt.Errorf("got node %d (size %d, leaf %v), want node %d (size %d)",
			got.ID, got.Size, got.Leaf, want, o.g.size[want])
	}
	return nil
}

func (o *oracle) checkLCA(a, b string, got client.Node) error {
	na, err := o.leaf(a)
	if err != nil {
		return err
	}
	nb, err := o.leaf(b)
	if err != nil {
		return err
	}
	if err := o.checkNode(o.ix.LCA(na.ID, nb.ID), got); err != nil {
		return fmt.Errorf("lca(%s,%s): %w", a, b, err)
	}
	return nil
}

// checkProject requires the returned projection to have the oracle's leaf
// set and topology (RF = 0).
func (o *oracle) checkProject(names []string, got string) error {
	gt, err := newick.Parse(got)
	if err != nil {
		return fmt.Errorf("project: unparsable answer: %w", err)
	}
	want, err := o.planner.ProjectNames(names)
	if err != nil {
		return err
	}
	rf, err := treecmp.RobinsonFoulds(want, gt)
	if err != nil {
		return fmt.Errorf("project: %w", err)
	}
	if rf != 0 {
		return fmt.Errorf("project: answer is RF %d from the oracle's projection", rf)
	}
	return nil
}

// checkMatch requires the RF the oracle computes between the projection
// over the pattern's leaves and the pattern.
func (o *oracle) checkMatch(pattern *phylo.Tree, got client.MatchResponse) error {
	want, err := o.planner.ProjectNames(pattern.LeafNames())
	if err != nil {
		return err
	}
	rf, err := treecmp.RobinsonFoulds(want, pattern)
	if err != nil {
		return err
	}
	if got.RF != rf || got.Exact != (rf == 0) {
		return fmt.Errorf("match: got RF %d (exact %v), want RF %d", got.RF, got.Exact, rf)
	}
	return nil
}

// checkClade requires exactly the clade rooted at node v.
func (o *oracle) checkClade(v int, got client.CladeResponse) error {
	if err := o.checkNode(v, got.Root); err != nil {
		return fmt.Errorf("clade root: %w", err)
	}
	var want []string
	stack := []*phylo.Node{o.g.tree.Nodes()[v]}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n.IsLeaf() {
			want = append(want, n.Name)
		}
		stack = append(stack, n.Children...)
	}
	sort.Strings(want)
	if got.Nodes != o.g.size[v] || got.Leaves != len(want) || !slices.Equal(got.Species, want) {
		return fmt.Errorf("clade of node %d: got %d nodes / %d leaves, want %d / %d (or a different leaf set)",
			v, got.Nodes, len(got.Species), o.g.size[v], len(want))
	}
	return nil
}

// checkSample requires k distinct leaves, each beyond the time bound when
// one was given (time < 0 means uniform sampling).
func (o *oracle) checkSample(k int, time float64, got []string) error {
	if len(got) != k {
		return fmt.Errorf("sample: got %d species, want %d", len(got), k)
	}
	seen := make(map[string]bool, k)
	for _, name := range got {
		n, err := o.leaf(name)
		if err != nil {
			return fmt.Errorf("sample: %w", err)
		}
		if seen[name] {
			return fmt.Errorf("sample: %s drawn twice", name)
		}
		seen[name] = true
		if time >= 0 && o.g.dist[n.ID] <= time {
			return fmt.Errorf("sample: %s at root distance %g is not beyond time %g", name, o.g.dist[n.ID], time)
		}
	}
	return nil
}

// checkBytes requires a species-data read to return exactly what was put.
func checkBytes(want, got []byte) error {
	if !bytes.Equal(want, got) {
		return fmt.Errorf("species data: got %d bytes, want the %d bytes put", len(got), len(want))
	}
	return nil
}
