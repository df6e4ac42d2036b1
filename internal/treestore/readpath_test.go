package treestore

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/phylo"
	"repro/internal/project"
	"repro/internal/sample"
	"repro/internal/treegen"
)

// counterCtx returns a context carrying a fresh span tree, so the
// assertions below are immune to other tests ticking the global obs.Engine
// counters. Operations open child spans and attribute counters to them;
// read the totals over the whole tree after the call.
func counterCtx() (context.Context, *obs.Span) {
	root := obs.NewRoot("test")
	return obs.ContextWithSpan(context.Background(), root), root
}

// total sums one counter over the span tree.
func total(root *obs.Span, name string) int64 {
	return root.Summary().Totals()[name]
}

// TestProjectCacheCutsDecodesAndDescents is the headline acceptance check
// for the hot read path on a 10k-leaf tree, k=50 projection:
//
//   - cold (a freshly installed decoded-node cache), it must stay within a
//     third of the B+tree descents and decoded cells the old per-row read
//     path spent on the same projection (1145 and 225,139);
//   - warm, every node comes from the cache: no cell is decoded, the
//     descents are the cold run's (the batch and the memo decide those,
//     not the cache), and a projection makes at most a fifth of the
//     45,502 allocations it made when leaves were decoded on every read;
//
// and both runs must produce the in-memory planner's tree.
func TestProjectCacheCutsDecodesAndDescents(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-leaf tree load")
	}
	const (
		maxDescents   = 1145 / 3
		maxCells      = 225139 / 3
		maxWarmAllocs = 45502 / 5
	)
	gold, err := treegen.Yule(10000, 1.0, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	s := OpenMem()
	defer s.Close()
	st, err := s.Load("big", gold, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := st.SampleUniformCtx(context.Background(), 50, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, len(sel))
	for i, n := range sel {
		ids[i] = n.ID
	}
	ix, err := core.Build(gold, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := project.NewPlanner(gold, ix).Project(oracleNodes(gold, ids))
	if err != nil {
		t.Fatal(err)
	}
	// measure runs one counted projection and checks its answer.
	measure := func(run string) (descents, cells int64) {
		t.Helper()
		ctx, span := counterCtx()
		got, err := st.ProjectCtx(ctx, ids)
		if err != nil {
			t.Fatal(err)
		}
		if !phylo.Equal(got, want, 1e-9) {
			t.Fatalf("%s: stored projection differs from the in-memory planner's", run)
		}
		return total(span, "btree_descents"), total(span, "cells_decoded")
	}

	s.dbs[0].Store().SetReadCacheBytes(64 << 20) // a fresh, empty cache
	descents, cells := measure("cold")
	if descents == 0 || descents > maxDescents {
		t.Fatalf("cold: btree_descents = %d, want 1..%d", descents, maxDescents)
	}
	if cells == 0 || cells > maxCells {
		t.Fatalf("cold: cells_decoded = %d, want 1..%d", cells, maxCells)
	}

	warmDescents, warmCells := measure("warm")
	if warmCells != 0 {
		t.Fatalf("warm: cells_decoded = %d, want 0", warmCells)
	}
	if warmDescents != descents {
		t.Fatalf("warm: btree_descents = %d, want the cold run's %d", warmDescents, descents)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := st.ProjectCtx(context.Background(), ids); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > maxWarmAllocs {
		t.Fatalf("warm: %.0f allocs per projection, want <= %d", allocs, maxWarmAllocs)
	}
	if err := s.dbs[0].Check(); err != nil {
		t.Fatal(err)
	}
	t.Logf("descents=%d (bound %d); cold cells=%d (bound %d); warm allocs=%.0f (bound %d)",
		descents, maxDescents, cells, maxCells, allocs, maxWarmAllocs)
}

// oracleNodes maps preorder ids to the in-memory tree's nodes.
func oracleNodes(gold *phylo.Tree, ids []int) []*phylo.Node {
	nodes := gold.Nodes()
	out := make([]*phylo.Node, len(ids))
	for i, id := range ids {
		out[i] = nodes[id]
	}
	return out
}

// TestQueriesByteIdenticalAcrossCacheSizes runs the same query mix at every
// cache configuration — none, too small to admit anything, small enough
// to evict constantly, and comfortably large. Every answer must equal the
// uncached run's exactly (projection and export at tolerance 0, each clade
// row's full Node), and must also match the in-memory implementations:
// project.Planner for the projection, core.Index for the LCAs and the
// clade root, and the gold tree itself for the export and the clade's
// members. Each cache size ends with the database check, which includes
// the read cache's coherence check.
func TestQueriesByteIdenticalAcrossCacheSizes(t *testing.T) {
	const fanout = 4
	gold, err := treegen.Yule(2000, 1.0, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	s := OpenMem()
	defer s.Close()
	if _, err := s.Load("t", gold, fanout, nil); err != nil {
		t.Fatal(err)
	}
	ix, err := core.Build(gold, fanout)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := sample.Uniform(gold, 40, rand.New(rand.NewSource(22)))
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, len(sel))
	for i, n := range sel {
		ids[i] = n.ID
	}

	wantProject, err := project.NewPlanner(gold, ix).Project(oracleNodes(gold, ids))
	if err != nil {
		t.Fatal(err)
	}
	var wantLCAs []int
	for i := 0; i+1 < len(ids); i += 2 {
		wantLCAs = append(wantLCAs, ix.LCA(ids[i], ids[i+1]))
	}
	cladeRoot := ids[0]
	for _, id := range ids[1:] {
		cladeRoot = ix.LCA(cladeRoot, id)
	}
	var wantClade []*phylo.Node
	for _, n := range gold.Nodes() {
		if ix.IsAncestor(cladeRoot, n.ID) {
			wantClade = append(wantClade, n)
		}
	}

	type answers struct {
		project *phylo.Tree
		export  *phylo.Tree
		clade   []Node
		lcas    []int
	}
	ctx := context.Background()
	run := func(tr *Tree) (answers, error) {
		var a answers
		var err error
		if a.project, err = tr.ProjectCtx(ctx, ids); err != nil {
			return a, err
		}
		if a.export, err = tr.ExportCtx(ctx); err != nil {
			return a, err
		}
		if a.clade, err = tr.MinimalSpanningCladeCtx(ctx, ids); err != nil {
			return a, err
		}
		for i := 0; i+1 < len(ids); i += 2 {
			l, err := tr.LCACtx(ctx, ids[i], ids[i+1])
			if err != nil {
				return a, err
			}
			a.lcas = append(a.lcas, l)
		}
		return a, nil
	}
	// checkOracle compares one run's answers with the in-memory
	// implementations.
	checkOracle := func(t *testing.T, pass int, a answers) {
		t.Helper()
		if !phylo.Equal(a.project, wantProject, 1e-9) {
			t.Fatalf("pass %d: projection differs from project.Planner", pass)
		}
		if !phylo.Equal(a.export, gold, 0) {
			t.Fatalf("pass %d: export differs from the gold tree", pass)
		}
		if len(a.clade) != len(wantClade) {
			t.Fatalf("pass %d: clade size %d != %d", pass, len(a.clade), len(wantClade))
		}
		for i, n := range a.clade {
			if n.ID != wantClade[i].ID || n.Name != wantClade[i].Name {
				t.Fatalf("pass %d: clade[%d] = %d %q, want %d %q",
					pass, i, n.ID, n.Name, wantClade[i].ID, wantClade[i].Name)
			}
		}
		for i, want := range wantLCAs {
			if a.lcas[i] != want {
				t.Fatalf("pass %d: lca[%d] = %d != core.Index %d", pass, i, a.lcas[i], want)
			}
		}
	}

	// The uncached run is the byte-level reference: every cache size must
	// reproduce it exactly, down to each clade row's full Node.
	s.dbs[0].Store().SetReadCacheBytes(0)
	tr, err := s.Tree("t")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := run(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, bytes := range []int64{0, 64 << 10, 256 << 10, 64 << 20} {
		t.Run(fmt.Sprintf("cache=%d", bytes), func(t *testing.T) {
			s.dbs[0].Store().SetReadCacheBytes(bytes)
			tr, err := s.Tree("t")
			if err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 2; pass++ { // cold, then warm
				got, err := run(tr)
				if err != nil {
					t.Fatal(err)
				}
				checkOracle(t, pass, got)
				if !phylo.Equal(got.project, ref.project, 0) {
					t.Fatalf("pass %d: projection differs from the uncached run", pass)
				}
				if !phylo.Equal(got.export, ref.export, 0) {
					t.Fatalf("pass %d: export differs from the uncached run", pass)
				}
				if len(got.clade) != len(ref.clade) {
					t.Fatalf("pass %d: clade size %d != %d", pass, len(got.clade), len(ref.clade))
				}
				for i := range got.clade {
					if got.clade[i] != ref.clade[i] {
						t.Fatalf("pass %d: clade[%d] = %+v, uncached run %+v", pass, i, got.clade[i], ref.clade[i])
					}
				}
				for i := range got.lcas {
					if got.lcas[i] != ref.lcas[i] {
						t.Fatalf("pass %d: lca[%d] = %d, uncached run %d", pass, i, got.lcas[i], ref.lcas[i])
					}
				}
			}
			// The decodes the two passes cached must still match their
			// pages.
			if err := s.dbs[0].Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
	s.dbs[0].Store().SetReadCacheBytes(0) // leave the store as found
}

// TestChildrenCtxOrdinalOrder pins the by_parent scan contract the sort
// removal relies on: children come back in ordinal order directly from the
// index scan.
func TestChildrenCtxOrdinalOrder(t *testing.T) {
	gold, err := treegen.Yule(300, 1.0, rand.New(rand.NewSource(31)))
	if err != nil {
		t.Fatal(err)
	}
	s := OpenMem()
	defer s.Close()
	st, err := s.Load("t", gold, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	total := 0
	for id := 0; id < gold.NumNodes(); id++ {
		kids, err := st.ChildrenCtx(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		for i, kid := range kids {
			if kid.Ord != i+1 {
				t.Fatalf("node %d child %d has ordinal %d, want %d", id, i, kid.Ord, i+1)
			}
			if kid.Parent != id {
				t.Fatalf("node %d child %d reports parent %d", id, i, kid.Parent)
			}
		}
		total += len(kids)
	}
	if total != gold.NumNodes()-1 {
		t.Fatalf("children total %d, want %d", total, gold.NumNodes()-1)
	}
}
