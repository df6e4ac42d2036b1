package treestore

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/phylo"
	"repro/internal/relstore"
	"repro/internal/shard"
	"repro/internal/treegen"
)

func loadShapes(t *testing.T) map[string]*phylo.Tree {
	t.Helper()
	r := rand.New(rand.NewSource(3))
	shapes := map[string]*phylo.Tree{}
	yule, err := treegen.Yule(600, 1.0, r)
	if err != nil {
		t.Fatal(err)
	}
	shapes["yule"] = yule
	cat, err := treegen.Caterpillar(300, r)
	if err != nil {
		t.Fatal(err)
	}
	shapes["caterpillar"] = cat
	shapes["single-leaf"] = phylo.New(&phylo.Node{Name: "only"})
	return shapes
}

// loadDump captures everything a load writes: the Newick export bytes and
// every node row (dewey label fields, preorder ids, subtree sizes
// included).
func loadDump(t *testing.T, tr *phylo.Tree, workers int) (string, []Node) {
	t.Helper()
	s := OpenMem()
	defer s.Close()
	st, err := s.LoadOpts("t", tr, 3, LoadOptions{Workers: workers}, nil)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	var sb strings.Builder
	if err := st.ExportNewickTo(context.Background(), &sb); err != nil {
		t.Fatalf("workers=%d: export: %v", workers, err)
	}
	var rows []Node
	err = st.nodes.ScanCtx(context.Background(), func(row relstore.Row) (bool, error) {
		rows = append(rows, decodeNode(row))
		return true, nil
	})
	if err != nil {
		t.Fatalf("workers=%d: scan: %v", workers, err)
	}
	for _, db := range s.dbs {
		if err := db.Check(); err != nil {
			t.Fatalf("workers=%d: check: %v", workers, err)
		}
	}
	return sb.String(), rows
}

// TestLoadWorkersDeterministic asserts a parallel load is bit-for-bit
// identical to the serial one at every worker count: same exported Newick
// bytes, same node rows (labels, preorder ids, subtree sizes), and index
// integrity verified by Check.
func TestLoadWorkersDeterministic(t *testing.T) {
	for name, tr := range loadShapes(t) {
		t.Run(name, func(t *testing.T) {
			wantExport, wantRows := loadDump(t, tr, 1)
			for _, workers := range []int{2, 4, 8} {
				gotExport, gotRows := loadDump(t, tr, workers)
				if gotExport != wantExport {
					t.Fatalf("workers=%d: exported Newick differs from serial load", workers)
				}
				if !reflect.DeepEqual(gotRows, wantRows) {
					t.Fatalf("workers=%d: node rows differ from serial load", workers)
				}
			}
		})
	}
}

func TestLoadMetricsPopulated(t *testing.T) {
	tr, err := treegen.Yule(200, 1.0, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	s := OpenMem()
	defer s.Close()
	var m LoadMetrics
	if _, err := s.LoadOpts("t", tr, 3, LoadOptions{Workers: 2, Metrics: &m}, nil); err != nil {
		t.Fatal(err)
	}
	if m.IndexNS <= 0 || m.StageNS <= 0 || m.InsertNS <= 0 {
		t.Fatalf("expected positive stage timings, got %+v", m)
	}
}

// TestLoadOptsConcurrentDistinctShards loads one tree per shard
// concurrently with staging fan-out on, exercising the parallel paths
// under the race detector while honoring the one-writer-per-shard
// contract.
func TestLoadOptsConcurrentDistinctShards(t *testing.T) {
	const shards = 4
	router, err := shard.NewRouter(shards)
	if err != nil {
		t.Fatal(err)
	}
	dbs := make([]*relstore.DB, shards)
	for i := range dbs {
		dbs[i] = relstore.OpenMemDB()
	}
	s, err := NewOnShards(dbs, router)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Pick one tree name per shard so concurrent loads never share a
	// shard's writer.
	names := make([]string, 0, shards)
	taken := make(map[int]bool, shards)
	for i := 0; len(names) < shards; i++ {
		name := fmt.Sprintf("tree-%d", i)
		if si := router.Place(name); !taken[si] {
			taken[si] = true
			names = append(names, name)
		}
	}
	errc := make(chan error, len(names))
	for i, name := range names {
		tr, err := treegen.Yule(150, 1.0, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			t.Fatal(err)
		}
		go func(name string, tr *phylo.Tree) {
			_, err := s.LoadOpts(name, tr, 3, LoadOptions{Workers: 4}, nil)
			errc <- err
		}(name, tr)
	}
	for range names {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	infos, err := s.TreesCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(names) {
		t.Fatalf("got %d trees, want %d", len(infos), len(names))
	}
}
