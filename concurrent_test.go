package crimson_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	crimson "repro"
	"repro/internal/treegen"
	"repro/internal/treestore"
)

// TestConcurrentReadersWithWriter is the repository-level stress test for
// the many-readers/one-writer contract: 8+ goroutines run Project, Sample,
// LCA and pattern-match queries against one stored tree while a writer
// goroutine loads a second tree into the same repository. Run with -race.
func TestConcurrentReadersWithWriter(t *testing.T) {
	ctx := context.Background()
	repo := crimson.OpenMem()
	defer repo.Close()

	gold, err := treegen.Yule(2000, 1.0, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	st, err := repo.LoadTree("gold", gold, crimson.DefaultFanout, nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := treegen.Yule(3000, 1.0, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}

	const readers = 8
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)

	// Writer: load a second tree into the same repository mid-flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := repo.LoadTree("second", second, crimson.DefaultFanout, nil); err != nil {
			errs <- fmt.Errorf("writer: %w", err)
		}
	}()

	info := st.Info()
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < 30; i++ {
				switch (g + i) % 3 {
				case 0: // sample then project
					rows, err := st.SampleUniformCtx(ctx, 8, r)
					if err != nil {
						errs <- fmt.Errorf("reader %d: sample: %w", g, err)
						return
					}
					ids := make([]int, len(rows))
					for j, row := range rows {
						ids[j] = row.ID
					}
					if _, err := st.ProjectCtx(ctx, ids); err != nil {
						errs <- fmt.Errorf("reader %d: project: %w", g, err)
						return
					}
				case 1: // storage-backed LCA
					a, b := r.Intn(info.Nodes), r.Intn(info.Nodes)
					if _, err := st.LCACtx(ctx, a, b); err != nil {
						errs <- fmt.Errorf("reader %d: lca(%d,%d): %w", g, a, b, err)
						return
					}
				case 2: // pattern match: project a random selection, compare
					rows, err := st.SampleUniformCtx(ctx, 5, r)
					if err != nil {
						errs <- fmt.Errorf("reader %d: sample: %w", g, err)
						return
					}
					names := make([]string, len(rows))
					for j, row := range rows {
						names[j] = row.Name
					}
					pattern, err := st.ProjectNamesCtx(ctx, names)
					if err != nil {
						errs <- fmt.Errorf("reader %d: project names: %w", g, err)
						return
					}
					projected, err := st.ProjectNamesCtx(ctx, pattern.LeafNames())
					if err != nil {
						errs <- fmt.Errorf("reader %d: re-project: %w", g, err)
						return
					}
					rf, err := crimson.RobinsonFoulds(projected, pattern)
					if err != nil || rf != 0 {
						errs <- fmt.Errorf("reader %d: self pattern match RF=%d, %v", g, rf, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Both trees are intact afterwards.
	if err := repo.Check(); err != nil {
		t.Fatalf("post-stress integrity: %v", err)
	}
	st2, err := repo.Tree("second")
	if err != nil {
		t.Fatal(err)
	}
	if st2.Info().Nodes != second.NumNodes() {
		t.Fatalf("second tree has %d nodes, want %d", st2.Info().Nodes, second.NumNodes())
	}
}

// TestSnapshotIsolationLoadDeleteStress is the MVCC stress test: 8
// snapshot readers run Project, LCA and Sample against a tree that one
// writer goroutine keeps loading and deleting in a loop. Every reader
// iteration must see all-or-nothing: either the snapshot predates the
// tree (ErrNoTree) or the tree is complete — full node count, every query
// answering — no matter where the writer is mid-load or mid-delete. Run
// with -race.
func TestSnapshotIsolationLoadDeleteStress(t *testing.T) {
	ctx := context.Background()
	repo := crimson.OpenMem()
	defer repo.Close()

	// A stable tree gives readers guaranteed work on every iteration.
	gold, err := treegen.Yule(1500, 1.0, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.LoadTree("gold", gold, crimson.DefaultFanout, nil); err != nil {
		t.Fatal(err)
	}
	flux, err := treegen.Yule(800, 1.0, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	fluxNodes := flux.NumNodes()

	const readers = 8
	const cycles = 6
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	done := make(chan struct{})

	// Writer: load→delete the flux tree in a loop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < cycles; i++ {
			if _, err := repo.LoadTree("flux", flux, crimson.DefaultFanout, nil); err != nil {
				errs <- fmt.Errorf("writer load %d: %w", i, err)
				return
			}
			if err := repo.Trees.Delete("flux"); err != nil {
				errs <- fmt.Errorf("writer delete %d: %w", i, err)
				return
			}
		}
	}()

	sawWhole := make([]int, readers)
	sawNone := make([]int, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(200 + g)))
			for iter := 0; ; iter++ {
				select {
				case <-done:
					return
				default:
				}
				sn := repo.Snapshot()
				// The flux tree must be atomic: absent, or whole.
				ft, err := sn.Tree("flux")
				switch {
				case err == nil:
					info := ft.Info()
					if info.Nodes != fluxNodes {
						errs <- fmt.Errorf("reader %d: torn snapshot: flux has %d nodes, want %d", g, info.Nodes, fluxNodes)
						sn.Close()
						return
					}
					// Count every stored node row: mid-delete states would
					// lose rows, mid-load states would miss tables.
					leaves, err := ft.LeavesUnderCtx(ctx, 0)
					if err != nil {
						errs <- fmt.Errorf("reader %d: flux leaves: %w", g, err)
						sn.Close()
						return
					}
					if len(leaves) != info.Leaves {
						errs <- fmt.Errorf("reader %d: torn snapshot: %d leaves scanned, info says %d", g, len(leaves), info.Leaves)
						sn.Close()
						return
					}
					if _, err := ft.LCACtx(ctx, r.Intn(info.Nodes), r.Intn(info.Nodes)); err != nil {
						errs <- fmt.Errorf("reader %d: flux LCA: %w", g, err)
						sn.Close()
						return
					}
					sawWhole[g]++
				case errors.Is(err, treestore.ErrNoTree):
					sawNone[g]++ // snapshot predates this load cycle: fine
				default:
					errs <- fmt.Errorf("reader %d: open flux: %w", g, err)
					sn.Close()
					return
				}
				// The gold tree is always present; exercise the full query
				// surface against the same snapshot.
				gt, err := sn.Tree("gold")
				if err != nil {
					errs <- fmt.Errorf("reader %d: open gold: %w", g, err)
					sn.Close()
					return
				}
				rows, err := gt.SampleUniformCtx(ctx, 6, r)
				if err != nil {
					errs <- fmt.Errorf("reader %d: sample: %w", g, err)
					sn.Close()
					return
				}
				ids := make([]int, len(rows))
				for j, row := range rows {
					ids[j] = row.ID
				}
				if _, err := gt.ProjectCtx(ctx, ids); err != nil {
					errs <- fmt.Errorf("reader %d: project: %w", g, err)
					sn.Close()
					return
				}
				sn.Close()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The repository is intact, reclamation has caught up (no snapshots
	// remain), and a final check passes.
	if err := repo.Check(); err != nil {
		t.Fatalf("post-stress integrity: %v", err)
	}
	mv := repo.MVCC()
	if mv.OpenSnapshots != 0 {
		t.Fatalf("%d snapshots still open after stress", mv.OpenSnapshots)
	}
	whole, none := 0, 0
	for g := 0; g < readers; g++ {
		whole += sawWhole[g]
		none += sawNone[g]
	}
	t.Logf("readers observed flux whole %d times, absent %d times, across %d writer cycles (epoch %d, %d pages pending reclaim)",
		whole, none, cycles, mv.Epoch, mv.PendingReclaimPages)
}
