package treestore

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/phylo"
	"repro/internal/project"
	"repro/internal/sample"
	"repro/internal/treegen"
)

func loadFigure1(t *testing.T, f int) (*Store, *Tree) {
	t.Helper()
	s := OpenMem()
	t.Cleanup(func() { s.Close() })
	tr, err := s.Load("fig1", phylo.PaperFigure1(), f, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s, tr
}

func TestLoadAndInfo(t *testing.T) {
	var msgs []string
	s := OpenMem()
	defer s.Close()
	tr, err := s.Load("fig1", phylo.PaperFigure1(), 2, func(m string) { msgs = append(msgs, m) })
	if err != nil {
		t.Fatal(err)
	}
	info := tr.Info()
	if info.Nodes != 8 || info.Leaves != 5 || info.F != 2 || info.Layers != 2 || info.Depth != 3 {
		t.Fatalf("info = %+v", info)
	}
	if len(msgs) == 0 {
		t.Fatal("no loading progress messages")
	}
	found := false
	for _, m := range msgs {
		if strings.Contains(m, "committed") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no commit message in %v", msgs)
	}
	// Duplicate load rejected.
	if _, err := s.Load("fig1", phylo.PaperFigure1(), 2, nil); !errors.Is(err, ErrTreeExists) {
		t.Fatalf("duplicate load error = %v", err)
	}
	// Bad names rejected.
	if _, err := s.Load("bad name!", phylo.PaperFigure1(), 2, nil); !errors.Is(err, ErrBadName) {
		t.Fatalf("bad name error = %v", err)
	}
}

func TestNodeAccess(t *testing.T) {
	ctx := context.Background()
	_, tr := loadFigure1(t, 2)
	syn, err := tr.NodeByNameCtx(ctx, "Syn")
	if err != nil {
		t.Fatal(err)
	}
	if !syn.Leaf || syn.Dist != 2.5 || syn.Depth != 1 {
		t.Fatalf("Syn row = %+v", syn)
	}
	root, err := tr.NodeCtx(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if root.Parent != -1 || root.Size != 8 {
		t.Fatalf("root row = %+v", root)
	}
	kids, err := tr.ChildrenCtx(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != 3 || kids[0].Name != "Syn" || kids[0].Ord != 1 {
		t.Fatalf("children = %+v", kids)
	}
	if _, err := tr.NodeCtx(ctx, 99); !errors.Is(err, ErrNoNode) {
		t.Fatalf("missing node error = %v", err)
	}
	if _, err := tr.NodeByNameCtx(ctx, "Ghost"); !errors.Is(err, ErrNoNode) {
		t.Fatalf("missing name error = %v", err)
	}
}

// TestStoredLCAMatchesPaper replays the paper's cross-layer walkthrough
// against the relational store.
func TestStoredLCAMatchesPaper(t *testing.T) {
	ctx := context.Background()
	_, tr := loadFigure1(t, 2)
	syn, _ := tr.NodeByNameCtx(ctx, "Syn")
	lla, _ := tr.NodeByNameCtx(ctx, "Lla")
	spy, _ := tr.NodeByNameCtx(ctx, "Spy")
	l, err := tr.LCACtx(ctx, syn.ID, lla.ID)
	if err != nil {
		t.Fatal(err)
	}
	if l != 0 {
		t.Fatalf("LCA(Syn, Lla) = %d, want root (0)", l)
	}
	l, err = tr.LCACtx(ctx, lla.ID, spy.ID)
	if err != nil {
		t.Fatal(err)
	}
	lrow, _ := tr.NodeCtx(ctx, l)
	if lrow.Leaf || lrow.Depth != 2 {
		t.Fatalf("LCA(Lla, Spy) = %+v, want y at depth 2", lrow)
	}
	ok, err := tr.IsAncestorCtx(ctx, 0, lla.ID)
	if err != nil || !ok {
		t.Fatalf("IsAncestor(root, Lla) = %v, %v", ok, err)
	}
	ok, err = tr.IsAncestorCtx(ctx, lla.ID, 0)
	if err != nil || ok {
		t.Fatalf("IsAncestor(Lla, root) = %v, %v", ok, err)
	}
}

// TestStoredLCAMatchesCoreProperty cross-checks the storage-backed LCA
// against the in-memory index on random trees.
func TestStoredLCAMatchesCoreProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		gold, err := treegen.RandomAttach(120+r.Intn(80), r)
		if err != nil {
			return false
		}
		fanout := 1 + r.Intn(6)
		ix, err := core.Build(gold, fanout)
		if err != nil {
			return false
		}
		s := OpenMem()
		defer s.Close()
		st, err := s.Load("t", gold, fanout, nil)
		if err != nil {
			t.Logf("Load: %v", err)
			return false
		}
		for i := 0; i < 60; i++ {
			a := r.Intn(gold.NumNodes())
			b := r.Intn(gold.NumNodes())
			want := ix.LCA(a, b)
			got, err := st.LCACtx(context.Background(), a, b)
			if err != nil || got != want {
				t.Logf("seed %d: LCA(%d,%d) = %d,%v want %d", seed, a, b, got, err, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestLCAOutOfRangeLayerIsError pins that a handle whose layer slices are
// shorter than the layer ids its rows name — a live handle whose tree was
// reloaded underneath it — gets ErrNoNode from LCACtx, not an index panic.
func TestLCAOutOfRangeLayerIsError(t *testing.T) {
	gold, err := treegen.Yule(300, 1.0, rand.New(rand.NewSource(41)))
	if err != nil {
		t.Fatal(err)
	}
	s := OpenMem()
	defer s.Close()
	if _, err := s.Load("t", gold, 3, nil); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	probe, err := s.Tree("t")
	if err != nil {
		t.Fatal(err)
	}
	if len(probe.layers) == 0 {
		t.Fatal("tree has a single layer; the check needs two")
	}
	// a and b sit in different layer-0 subtrees, so their LCA recurses
	// into layer 1 and ascends through the subtree relation.
	a, err := probe.NodeCtx(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := -1
	for id := gold.NumNodes() - 1; id > 0 && b < 0; id-- {
		n, err := probe.NodeCtx(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if n.Sub != a.Sub {
			b = id
		}
	}
	if b < 0 {
		t.Fatal("no pair spans two layer-0 subtrees")
	}
	for name, truncate := range map[string]func(*Tree){
		"layers": func(tr *Tree) { tr.layers = tr.layers[:0] },
		"subs":   func(tr *Tree) { tr.subs = tr.subs[:0] },
	} {
		t.Run(name, func(t *testing.T) {
			tr, err := s.Tree("t")
			if err != nil {
				t.Fatal(err)
			}
			truncate(tr)
			if _, err := tr.LCACtx(ctx, a.ID, b); !errors.Is(err, ErrNoNode) {
				t.Fatalf("LCACtx = %v, want ErrNoNode", err)
			}
		})
	}
}

func TestFrontierMatchesInMemory(t *testing.T) {
	_, tr := loadFigure1(t, 2)
	front, err := tr.FrontierCtx(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(front) != 4 {
		t.Fatalf("frontier size = %d, want 4 (paper §2.2)", len(front))
	}
	names := map[string]bool{}
	for _, n := range front {
		names[n.Name] = true
	}
	for _, want := range []string{"Bha", "Syn", "Bsu"} {
		if !names[want] {
			t.Fatalf("frontier missing %s", want)
		}
	}
	// Strictness at the boundary.
	front, err = tr.FrontierCtx(context.Background(), 1.25)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range front {
		if n.Dist <= 1.25 {
			t.Fatalf("node at dist %g included at time 1.25", n.Dist)
		}
	}
}

func TestLeavesUnderAndClade(t *testing.T) {
	ctx := context.Background()
	_, tr := loadFigure1(t, 2)
	lla, _ := tr.NodeByNameCtx(ctx, "Lla")
	spy, _ := tr.NodeByNameCtx(ctx, "Spy")
	yID, err := tr.LCACtx(ctx, lla.ID, spy.ID)
	if err != nil {
		t.Fatal(err)
	}
	leaves, err := tr.LeavesUnderCtx(ctx, yID)
	if err != nil {
		t.Fatal(err)
	}
	if len(leaves) != 2 {
		t.Fatalf("leaves under y = %d", len(leaves))
	}
	clade, err := tr.MinimalSpanningCladeCtx(ctx, []int{lla.ID, spy.ID})
	if err != nil {
		t.Fatal(err)
	}
	if len(clade) != 3 { // y, Lla, Spy
		t.Fatalf("clade size = %d, want 3", len(clade))
	}
	// Clade of Syn and Lla spans the whole tree.
	syn, _ := tr.NodeByNameCtx(ctx, "Syn")
	clade, err = tr.MinimalSpanningCladeCtx(ctx, []int{syn.ID, lla.ID})
	if err != nil {
		t.Fatal(err)
	}
	if len(clade) != 8 {
		t.Fatalf("root clade size = %d, want 8", len(clade))
	}
}

func TestStoredSampling(t *testing.T) {
	ctx := context.Background()
	_, tr := loadFigure1(t, 2)
	r := rand.New(rand.NewSource(2))
	got, err := tr.SampleUniformCtx(ctx, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("sampled %d", len(got))
	}
	seen := map[int]bool{}
	for _, n := range got {
		if !n.Leaf || seen[n.ID] {
			t.Fatalf("bad sample %+v", got)
		}
		seen[n.ID] = true
	}
	if _, err := tr.SampleUniformCtx(ctx, 6, r); err == nil {
		t.Fatal("oversample accepted")
	}
	// Time-constrained: replicate the paper's walkthrough.
	for seed := int64(0); seed < 20; seed++ {
		rr := rand.New(rand.NewSource(seed))
		got, err := tr.SampleWithTimeCtx(ctx, 1, 4, rr)
		if err != nil {
			t.Fatal(err)
		}
		names := map[string]bool{}
		for _, n := range got {
			names[n.Name] = true
		}
		if !names["Bha"] || !names["Syn"] || !names["Bsu"] {
			t.Fatalf("seed %d: sample = %v", seed, names)
		}
		if !names["Lla"] && !names["Spy"] {
			t.Fatalf("seed %d: neither Lla nor Spy sampled", seed)
		}
	}
	if _, err := tr.SampleWithTimeCtx(ctx, 100, 1, r); err == nil {
		t.Fatal("empty frontier accepted")
	}
}

// TestStoredProjectionFigure2 reproduces Figure 2 against the store.
func TestStoredProjectionFigure2(t *testing.T) {
	_, tr := loadFigure1(t, 2)
	got, err := tr.ProjectNamesCtx(context.Background(), []string{"Bha", "Lla", "Syn"})
	if err != nil {
		t.Fatal(err)
	}
	mem := phylo.PaperFigure1()
	ix, _ := core.Build(mem, 2)
	want, err := project.NewPlanner(mem, ix).ProjectNames([]string{"Bha", "Lla", "Syn"})
	if err != nil {
		t.Fatal(err)
	}
	if !phylo.Equal(got, want, 1e-12) {
		t.Fatal("stored projection differs from in-memory projection")
	}
}

// TestStoredProjectionMatchesMemoryProperty cross-checks projections on
// random trees and selections.
func TestStoredProjectionMatchesMemoryProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		gold, err := treegen.Yule(30+r.Intn(50), 1, r)
		if err != nil {
			return false
		}
		fanout := 2 + r.Intn(5)
		s := OpenMem()
		defer s.Close()
		st, err := s.Load("t", gold, fanout, nil)
		if err != nil {
			return false
		}
		sel, err := sample.Uniform(gold, 2+r.Intn(10), r)
		if err != nil {
			return false
		}
		ids := make([]int, len(sel))
		names := make([]string, len(sel))
		for i, n := range sel {
			ids[i] = n.ID
			names[i] = n.Name
		}
		got, err := st.ProjectCtx(context.Background(), ids)
		if err != nil {
			t.Logf("stored project: %v", err)
			return false
		}
		ix, err := core.Build(gold, fanout)
		if err != nil {
			return false
		}
		want, err := project.NewPlanner(gold, ix).ProjectNames(names)
		if err != nil {
			return false
		}
		return phylo.Equal(got, want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestPersistAcrossReopen(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	path := filepath.Join(dir, "repo.db")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("fig1", phylo.PaperFigure1(), 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	infos, err := s.TreesCtx(ctx)
	if err != nil || len(infos) != 1 || infos[0].Name != "fig1" {
		t.Fatalf("Trees after reopen = %v, %v", infos, err)
	}
	tr, err := s.Tree("fig1")
	if err != nil {
		t.Fatal(err)
	}
	syn, err := tr.NodeByNameCtx(ctx, "Syn")
	if err != nil || syn.Dist != 2.5 {
		t.Fatalf("Syn after reopen = %+v, %v", syn, err)
	}
	lla, _ := tr.NodeByNameCtx(ctx, "Lla")
	l, err := tr.LCACtx(ctx, syn.ID, lla.ID)
	if err != nil || l != 0 {
		t.Fatalf("LCA after reopen = %d, %v", l, err)
	}
}

func TestDelete(t *testing.T) {
	s := OpenMem()
	defer s.Close()
	if _, err := s.Load("a", phylo.PaperFigure1(), 2, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("b", phylo.PaperFigure1(), 4, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Tree("a"); !errors.Is(err, ErrNoTree) {
		t.Fatalf("deleted tree still opens: %v", err)
	}
	if _, err := s.Tree("b"); err != nil {
		t.Fatalf("sibling tree lost: %v", err)
	}
	if err := s.Delete("a"); !errors.Is(err, ErrNoTree) {
		t.Fatalf("double delete error = %v", err)
	}
}

func TestDeepStoredTree(t *testing.T) {
	// A deep caterpillar exercises multi-layer storage-backed LCA.
	r := rand.New(rand.NewSource(4))
	gold, err := treegen.Caterpillar(800, r)
	if err != nil {
		t.Fatal(err)
	}
	s := OpenMem()
	defer s.Close()
	st, err := s.Load("deep", gold, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Info().Layers < 3 {
		t.Fatalf("layers = %d, expected >= 3 for depth 800 at f=8", st.Info().Layers)
	}
	ix, _ := core.Build(gold, 8)
	for i := 0; i < 100; i++ {
		a, b := r.Intn(gold.NumNodes()), r.Intn(gold.NumNodes())
		want := ix.LCA(a, b)
		got, err := st.LCACtx(context.Background(), a, b)
		if err != nil || got != want {
			t.Fatalf("deep LCA(%d,%d) = %d,%v want %d", a, b, got, err, want)
		}
	}
}
