// Benchmarks regenerating the paper's performance claims, one per
// experiment in DESIGN.md §4 (E5–E14). The paper is a demonstration paper
// without quantitative tables, so each bench quantifies one of its
// qualitative claims; EXPERIMENTS.md records the measured numbers next to
// the claim they support.
package crimson_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	crimson "repro"
	"repro/internal/benchmark"
	"repro/internal/core"
	"repro/internal/dewey"
	"repro/internal/distance"
	"repro/internal/phylo"
	"repro/internal/project"
	"repro/internal/recon"
	"repro/internal/relstore"
	"repro/internal/sample"
	"repro/internal/seqsim"
	"repro/internal/storage"
	"repro/internal/treegen"
	"repro/internal/treestore"
)

// --- shared fixtures (built once per process) ------------------------------

var (
	fixMu   sync.Mutex
	fixCat  = map[int]*phylo.Tree{}    // caterpillar by depth
	fixYule = map[int]*phylo.Tree{}    // yule by leaves
	fixIdx  = map[string]*core.Index{} // index by key
)

func catTree(b *testing.B, depth int) *phylo.Tree {
	b.Helper()
	fixMu.Lock()
	defer fixMu.Unlock()
	if t, ok := fixCat[depth]; ok {
		return t
	}
	t, err := treegen.Caterpillar(depth, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	fixCat[depth] = t
	return t
}

func yuleTree(b *testing.B, leaves int) *phylo.Tree {
	b.Helper()
	fixMu.Lock()
	defer fixMu.Unlock()
	if t, ok := fixYule[leaves]; ok {
		return t
	}
	t, err := treegen.Yule(leaves, 1.0, rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	fixYule[leaves] = t
	return t
}

func hierIndex(b *testing.B, t *phylo.Tree, key string, f int) *core.Index {
	b.Helper()
	fixMu.Lock()
	defer fixMu.Unlock()
	k := fmt.Sprintf("%s/f=%d", key, f)
	if ix, ok := fixIdx[k]; ok {
		return ix
	}
	ix, err := core.Build(t, f)
	if err != nil {
		b.Fatal(err)
	}
	fixIdx[k] = ix
	return ix
}

func randomPairs(t *phylo.Tree, n int, seed int64) [][2]int {
	r := rand.New(rand.NewSource(seed))
	nodes := t.Nodes()
	out := make([][2]int, n)
	for i := range out {
		out[i] = [2]int{r.Intn(len(nodes)), r.Intn(len(nodes))}
	}
	return out
}

// --- E5: label size and LCA latency vs depth (plain vs hierarchical) -------

// BenchmarkE5LabelSize measures index build time and reports the label
// storage footprint (bytes per node) of plain Dewey vs hierarchical
// labels on caterpillar trees of growing depth — the paper's "labels may
// become large enough to hurt query performance" claim.
func BenchmarkE5LabelSize(b *testing.B) {
	for _, depth := range []int{1000, 10000, 100000} {
		t := catTree(b, depth)
		nodes := float64(t.NumNodes())
		if depth <= 10000 {
			// A plain index on a caterpillar costs O(depth^2) label bytes
			// (~40 GB at depth 100k), so the plain arm stops at 10k —
			// which is itself the point of the experiment.
			b.Run(fmt.Sprintf("plain/depth=%d", depth), func(b *testing.B) {
				var bytes int
				for i := 0; i < b.N; i++ {
					ix := dewey.BuildPlain(t)
					bytes = ix.TotalLabelBytes()
				}
				b.ReportMetric(float64(bytes)/nodes, "labelB/node")
			})
		}
		for _, f := range []int{4, 16, 64} {
			b.Run(fmt.Sprintf("hier-f=%d/depth=%d", f, depth), func(b *testing.B) {
				var bytes int
				for i := 0; i < b.N; i++ {
					ix, err := core.Build(t, f)
					if err != nil {
						b.Fatal(err)
					}
					bytes = ix.TotalLabelBytes()
				}
				b.ReportMetric(float64(bytes)/nodes, "labelB/node")
			})
		}
	}
}

// BenchmarkE5LCA measures per-query LCA latency on deep trees for the
// three strategies: naive pointer walk, plain Dewey LCP, hierarchical.
func BenchmarkE5LCA(b *testing.B) {
	for _, depth := range []int{1000, 10000, 100000} {
		t := catTree(b, depth)
		pairs := randomPairs(t, 1024, 3)
		nodes := t.Nodes()
		b.Run(fmt.Sprintf("naive/depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				phylo.LCA(nodes[p[0]], nodes[p[1]])
			}
		})
		if depth <= 10000 {
			b.Run(fmt.Sprintf("plain/depth=%d", depth), func(b *testing.B) {
				ix := dewey.BuildPlain(t)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p := pairs[i%len(pairs)]
					ix.LCA(p[0], p[1])
				}
			})
		}
		for _, f := range []int{4, 16, 64} {
			b.Run(fmt.Sprintf("hier-f=%d/depth=%d", f, depth), func(b *testing.B) {
				ix := hierIndex(b, t, fmt.Sprintf("cat%d", depth), f)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p := pairs[i%len(pairs)]
					ix.LCA(p[0], p[1])
				}
			})
		}
	}
}

// --- E6: structure queries on a realistic large tree -----------------------

// BenchmarkE6StructureQueries measures LCA and ancestor checks on a
// 100k-leaf Yule tree with the hierarchical index — the "structure-based
// queries via LCP are very efficient" claim.
func BenchmarkE6StructureQueries(b *testing.B) {
	t := yuleTree(b, 100000)
	ix := hierIndex(b, t, "yule100k", core.DefaultFanout)
	pairs := randomPairs(t, 4096, 4)
	b.Run("LCA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			ix.LCA(p[0], p[1])
		}
	})
	b.Run("IsAncestor", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			ix.IsAncestor(p[0], p[1])
		}
	})
	b.Run("LocalLabel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix.Label(pairs[i%len(pairs)][0])
		}
	})
}

// --- E7: projection latency vs sample size --------------------------------

// BenchmarkE7Projection measures the rightmost-path projection on a
// 100k-leaf tree across sample sizes (§2.2 strategy).
func BenchmarkE7Projection(b *testing.B) {
	t := yuleTree(b, 100000)
	ix := hierIndex(b, t, "yule100k", core.DefaultFanout)
	planner := project.NewPlanner(t, ix)
	for _, k := range []int{10, 100, 1000, 10000} {
		sel, err := sample.Uniform(t, k, rand.New(rand.NewSource(5)))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := planner.Project(sel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E8: sampling latency ---------------------------------------------------

// BenchmarkE8Sampling measures uniform and time-constrained sampling on a
// 100k-leaf tree.
func BenchmarkE8Sampling(b *testing.B) {
	t := yuleTree(b, 100000)
	// A time cutting midway through the ultrametric tree.
	height := 0.0
	for _, d := range t.RootDistances() {
		if d > height {
			height = d
		}
	}
	r := rand.New(rand.NewSource(6))
	for _, k := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("uniform/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sample.Uniform(t, k, r); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("time/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sample.WithRespectToTime(t, height/2, k, r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E9: load throughput into the relational store -------------------------

// BenchmarkE9Load measures loading trees into the relational repository
// (hierarchical index build + row/index inserts + commit).
func BenchmarkE9Load(b *testing.B) {
	for _, leaves := range []int{1000, 10000, 50000} {
		t := yuleTree(b, leaves)
		b.Run(fmt.Sprintf("leaves=%d", leaves), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := treestore.OpenMem()
				if _, err := s.Load("t", t, core.DefaultFanout, nil); err != nil {
					b.Fatal(err)
				}
				s.Close()
			}
			b.ReportMetric(float64(t.NumNodes()*b.N)/b.Elapsed().Seconds(), "nodes/s")
		})
	}
}

// BenchmarkLoadTree measures the end-to-end bulk-load pipeline on a
// 10k-leaf tree: stage node rows, sort by primary key, and build the
// primary tree plus all secondary indexes bottom-up via BTree.BulkLoad.
// Compare against the seed's row-at-a-time numbers recorded in CHANGES.md.
func BenchmarkLoadTree(b *testing.B) {
	t := yuleTree(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := treestore.OpenMem()
		if _, err := s.Load("t", t, core.DefaultFanout, nil); err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
	b.ReportMetric(float64(t.NumNodes()*b.N)/b.Elapsed().Seconds(), "nodes/s")
}

// BenchmarkBulkInsert contrasts Table.BulkInsert with the row-at-a-time
// Insert path on an identical 20k-row relation (three secondary indexes,
// mirroring the nodes table schema shape).
func BenchmarkBulkInsert(b *testing.B) {
	schema := relstoreBenchSchema()
	rows := relstoreBenchRows(20000)
	b.Run("BulkInsert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db := relstore.OpenMemDB()
			tab, err := db.CreateTable(schema)
			if err != nil {
				b.Fatal(err)
			}
			if err := tab.BulkInsert(rows); err != nil {
				b.Fatal(err)
			}
			db.Close()
		}
		b.ReportMetric(float64(len(rows)*b.N)/b.Elapsed().Seconds(), "rows/s")
	})
	b.Run("RowInsert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db := relstore.OpenMemDB()
			tab, err := db.CreateTable(schema)
			if err != nil {
				b.Fatal(err)
			}
			for _, row := range rows {
				if err := tab.Insert(row); err != nil {
					b.Fatal(err)
				}
			}
			db.Close()
		}
		b.ReportMetric(float64(len(rows)*b.N)/b.Elapsed().Seconds(), "rows/s")
	})
}

func relstoreBenchSchema() relstore.Schema {
	return relstore.Schema{
		Name: "bench",
		Columns: []relstore.Column{
			{Name: "id", Type: relstore.TInt},
			{Name: "name", Type: relstore.TString},
			{Name: "dist", Type: relstore.TFloat},
			{Name: "parent", Type: relstore.TInt},
		},
		Key: "id",
		Indexes: []relstore.Index{
			{Name: "by_name", Columns: []string{"name"}},
			{Name: "by_dist", Columns: []string{"dist"}},
			{Name: "by_parent", Columns: []string{"parent"}},
		},
	}
}

func relstoreBenchRows(n int) []relstore.Row {
	rows := make([]relstore.Row, n)
	for i := range rows {
		rows[i] = relstore.Row{
			relstore.Int(int64(i)),
			relstore.Str(fmt.Sprintf("species%08d", i)),
			relstore.Float(float64(i%977) * 0.25),
			relstore.Int(int64(i / 2)),
		}
	}
	return rows
}

// BenchmarkParallelRead measures storage-backed query throughput with
// GOMAXPROCS goroutines hammering one stored tree — the concurrent read
// path the RWMutex discipline unlocks. -cpu 1,4,8 sweeps the parallelism.
func BenchmarkParallelRead(b *testing.B) {
	ctx := context.Background()
	t := yuleTree(b, 20000)
	s := treestore.OpenMem()
	defer s.Close()
	st, err := s.Load("gold", t, core.DefaultFanout, nil)
	if err != nil {
		b.Fatal(err)
	}
	nodes := st.Info().Nodes
	b.Run("LCA", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			r := rand.New(rand.NewSource(17))
			for pb.Next() {
				if _, err := st.LCACtx(ctx, r.Intn(nodes), r.Intn(nodes)); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("Project-k=20", func(b *testing.B) {
		rows, err := st.SampleUniformCtx(ctx, 20, rand.New(rand.NewSource(18)))
		if err != nil {
			b.Fatal(err)
		}
		ids := make([]int, len(rows))
		for i, row := range rows {
			ids[i] = row.ID
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := st.ProjectCtx(ctx, ids); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("Sample-k=50", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			r := rand.New(rand.NewSource(19))
			for pb.Next() {
				if _, err := st.SampleUniformCtx(ctx, 50, r); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// --- E10: tree pattern match ------------------------------------------------

// BenchmarkE10PatternMatch measures the §2.2 pattern match (project the
// pattern's leaves, then compare) across pattern sizes.
func BenchmarkE10PatternMatch(b *testing.B) {
	t := yuleTree(b, 10000)
	ix := hierIndex(b, t, "yule10k", core.DefaultFanout)
	planner := project.NewPlanner(t, ix)
	for _, k := range []int{4, 16, 64, 256} {
		sel, err := sample.Uniform(t, k, rand.New(rand.NewSource(7)))
		if err != nil {
			b.Fatal(err)
		}
		pattern, err := planner.Project(sel)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("pattern=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := crimson.PatternMatch(t, ix, pattern)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Exact {
					b.Fatal("self-derived pattern must match")
				}
			}
		})
	}
}

// --- E11: Benchmark Manager end to end --------------------------------------

// BenchmarkE11EndToEnd measures a complete benchmark run: sample, project,
// distances, NJ + UPGMA, RF scoring.
func BenchmarkE11EndToEnd(b *testing.B) {
	gold := yuleTree(b, 2000).Clone()
	for _, n := range gold.Nodes() {
		if n.Parent != nil {
			n.Length *= 0.15
		}
	}
	gold.Reindex()
	aln, err := seqsim.Evolve(gold, seqsim.Config{Length: 500, Model: seqsim.JC69{}}, rand.New(rand.NewSource(8)))
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{10, 50, 100} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := benchmark.Run(benchmark.Config{
					Gold:        gold,
					Alignment:   aln,
					SampleSizes: []int{k},
					Replicates:  1,
					Seed:        int64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E12: disk-resident point queries ----------------------------------------

// BenchmarkE12DiskAccess measures random access against a file-backed
// repository — name lookup, child listing, storage-backed LCA and
// time-frontier queries — supporting the paper's "argues against main
// memory techniques" design point.
func BenchmarkE12DiskAccess(b *testing.B) {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "crimson-bench-*")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	s, err := treestore.Open(filepath.Join(dir, "bench.db"))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	t := yuleTree(b, 20000)
	st, err := s.Load("gold", t, core.DefaultFanout, nil)
	if err != nil {
		b.Fatal(err)
	}
	names := t.LeafNames()
	pairs := randomPairs(t, 1024, 9)
	r := rand.New(rand.NewSource(10))
	b.Run("NodeByName", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := st.NodeByNameCtx(ctx, names[i%len(names)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Children", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := st.ChildrenCtx(ctx, pairs[i%len(pairs)][0]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("LCA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			if _, err := st.LCACtx(ctx, p[0], p[1]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Project-k=50", func(b *testing.B) {
		rows, err := st.SampleUniformCtx(ctx, 50, r)
		if err != nil {
			b.Fatal(err)
		}
		ids := make([]int, len(rows))
		for i, row := range rows {
			ids[i] = row.ID
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := st.ProjectCtx(ctx, ids); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E13: storage substrate micro-benchmarks ---------------------------------

// BenchmarkE13BTree measures raw B+tree operations of the storage engine.
func BenchmarkE13BTree(b *testing.B) {
	keys := make([][]byte, 100000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key%08d", i*7919%100000))
	}
	b.Run("Put", func(b *testing.B) {
		s := storage.OpenMem()
		defer s.Close()
		tr, err := storage.NewBTree(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := tr.Put(keys[i%len(keys)], keys[i%len(keys)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	s := storage.OpenMem()
	defer s.Close()
	tr, err := storage.NewBTree(s)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range keys {
		if err := tr.Put(k, k); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("Get", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok, err := tr.Get(keys[i%len(keys)]); err != nil || !ok {
				b.Fatal(err)
			}
		}
	})
	b.Run("SeekScan100", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c, err := tr.Seek(keys[i%len(keys)])
			if err != nil {
				b.Fatal(err)
			}
			for j := 0; j < 100 && c.Valid(); j++ {
				if err := c.Next(); err != nil {
					b.Fatal(err)
				}
			}
			c.Close()
		}
	})
	b.Run("BulkLoad", func(b *testing.B) {
		sorted := make([]storage.KV, 100000)
		for i := range sorted {
			k := []byte(fmt.Sprintf("key%08d", i))
			sorted[i] = storage.KV{Key: k, Value: k}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := storage.OpenMem()
			tr, err := storage.NewBTree(s)
			if err != nil {
				b.Fatal(err)
			}
			if err := tr.BulkLoad(sorted); err != nil {
				b.Fatal(err)
			}
			s.Close()
		}
		b.ReportMetric(float64(len(sorted)*b.N)/b.Elapsed().Seconds(), "keys/s")
	})
}

// --- E14: fanout ablation -----------------------------------------------------

// BenchmarkE14FanoutAblation sweeps the depth bound f on a deep tree,
// reporting LCA latency and label bytes per node: small f means smaller
// labels but more layers to recurse through.
func BenchmarkE14FanoutAblation(b *testing.B) {
	t := catTree(b, 50000)
	pairs := randomPairs(t, 1024, 11)
	for _, f := range []int{2, 4, 8, 16, 32, 64, 128, 256} {
		b.Run(fmt.Sprintf("f=%d", f), func(b *testing.B) {
			ix := hierIndex(b, t, "cat50k", f)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				ix.LCA(p[0], p[1])
			}
			st := ix.Stats()
			b.ReportMetric(float64(st.LabelBytes)/float64(st.Nodes), "labelB/node")
			b.ReportMetric(float64(st.Layers), "layers")
		})
	}
}

// --- supporting benches: simulation and reconstruction throughput ------------

// BenchmarkSeqSim measures sequence-evolution throughput (sites/s) for
// each substitution model.
func BenchmarkSeqSim(b *testing.B) {
	t := yuleTree(b, 1000)
	models := []seqsim.Model{seqsim.JC69{}, seqsim.K2P{Kappa: 2}, seqsim.HKY85{Kappa: 2, BaseFreqs: [4]float64{0.3, 0.2, 0.2, 0.3}}}
	for _, m := range models {
		b.Run(m.Name(), func(b *testing.B) {
			r := rand.New(rand.NewSource(12))
			for i := 0; i < b.N; i++ {
				if _, err := seqsim.Evolve(t, seqsim.Config{Length: 200, Model: m}, r); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)*200*1000/b.Elapsed().Seconds(), "leafsites/s")
		})
	}
}

// BenchmarkRecon measures NJ and UPGMA runtime across input sizes.
func BenchmarkRecon(b *testing.B) {
	for _, k := range []int{25, 50, 100, 200} {
		t := yuleTree(b, k)
		leaves := t.Leaves()
		names := make([]string, len(leaves))
		dist := t.RootDistances()
		for i, l := range leaves {
			names[i] = l.Name
		}
		m := distance.New(names)
		for i := 0; i < len(leaves); i++ {
			for j := i + 1; j < len(leaves); j++ {
				l := phylo.LCA(leaves[i], leaves[j])
				m.Set(i, j, dist[leaves[i]]+dist[leaves[j]]-2*dist[l])
			}
		}
		for _, alg := range []recon.Algorithm{recon.NeighborJoining{}, recon.UPGMA{}} {
			b.Run(fmt.Sprintf("%s/k=%d", alg.Name(), k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := alg.Reconstruct(m); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
