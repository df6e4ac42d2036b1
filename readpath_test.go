package crimson_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	crimson "repro"
	"repro/internal/relstore"
	"repro/internal/treegen"
	"repro/internal/treestore"
)

// TestReadCacheChurnSnapshotIsolation hammers the version-keyed read cache
// with churn: one writer repeatedly deletes and reloads the same tree name
// (a different tree each round) while eight readers query whatever the
// live repository currently holds and one snapshot taken before the churn
// keeps reading the original version. The cache keys by (page, epoch), so
// the snapshot must keep seeing the old tree bit-for-bit while live
// readers only ever see a complete version — old or new, never torn.
// Runs at 1 and 4 shards; the -race build is the point of this test. It
// ends with repo.Check, which also verifies the read cache is coherent.
func TestReadCacheChurnSnapshotIsolation(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			repo := crimson.OpenMemSharded(shards)
			defer repo.Close()
			repo.SetReadCacheMB(8)

			const name = "churn"
			versions := make([]*crimson.Tree, 4)
			leaves := make(map[int]int) // leaf count -> version
			for i := range versions {
				tree, err := treegen.Yule(400+100*i, 1.0, rand.New(rand.NewSource(int64(100+i))))
				if err != nil {
					t.Fatal(err)
				}
				versions[i] = tree
				leaves[tree.NumLeaves()] = i
			}
			if _, err := repo.LoadTree(name, versions[0], crimson.DefaultFanout, nil); err != nil {
				t.Fatal(err)
			}

			snap := repo.Snapshot()
			defer snap.Close()
			snapTree, err := snap.Tree(name)
			if err != nil {
				t.Fatal(err)
			}
			wantExport, err := snapTree.ExportCtx(context.Background())
			if err != nil {
				t.Fatal(err)
			}

			var stop atomic.Bool
			var wg sync.WaitGroup
			errs := make(chan error, 16)
			fail := func(format string, a ...any) {
				select {
				case errs <- fmt.Errorf(format, a...):
				default:
				}
			}

			// Writer: delete + reload a different version each round.
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer stop.Store(true)
				for round := 1; round <= 8; round++ {
					if err := repo.Trees.Delete(name); err != nil {
						fail("delete round %d: %v", round, err)
						return
					}
					v := versions[round%len(versions)]
					if _, err := repo.LoadTree(name, v, crimson.DefaultFanout, nil); err != nil {
						fail("reload round %d: %v", round, err)
						return
					}
				}
			}()

			// Live readers: must always see some complete version.
			for r := 0; r < 8; r++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for !stop.Load() {
						st, err := repo.Tree(name)
						if err != nil {
							// Between delete and reload the tree (or some of
							// its relations — live handles see the writer's
							// progress) is simply gone. Retry.
							if errors.Is(err, treestore.ErrNoTree) || errors.Is(err, relstore.ErrNoTable) {
								continue
							}
							fail("live open: %v", err)
							return
						}
						info := st.Info()
						if _, ok := leaves[info.Leaves]; !ok {
							fail("live reader saw %d leaves: not any loaded version", info.Leaves)
							return
						}
						k := 2 + rng.Intn(8)
						sel, err := st.SampleUniformCtx(context.Background(), k, rng)
						if err != nil {
							// The version changed under the handle: reads hit
							// reclaimed pages and fail cleanly. Retry.
							continue
						}
						ids := make([]int, len(sel))
						for i, n := range sel {
							ids[i] = n.ID
						}
						if _, err := st.ProjectCtx(context.Background(), ids); err != nil {
							continue
						}
					}
				}(int64(r))
			}

			// Snapshot reader: pinned to the pre-churn version throughout.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; !stop.Load() || i < 1; i++ {
					info := snapTree.Info()
					if got := info.Leaves; got != versions[0].NumLeaves() {
						fail("snapshot saw %d leaves, want %d", got, versions[0].NumLeaves())
						return
					}
					got, err := snapTree.ExportCtx(context.Background())
					if err != nil {
						fail("snapshot export: %v", err)
						return
					}
					if crimson.FormatNewick(got) != crimson.FormatNewick(wantExport) {
						fail("snapshot export drifted from the pre-churn tree")
						return
					}
				}
			}()

			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}

			// After the dust settles the live view is the writer's last
			// version, readable end to end.
			st, err := repo.Tree(name)
			if err != nil {
				t.Fatal(err)
			}
			final := versions[8%len(versions)]
			if st.Info().Leaves != final.NumLeaves() {
				t.Fatalf("final tree has %d leaves, want %d", st.Info().Leaves, final.NumLeaves())
			}
			if entries, bytes := repo.ReadCacheStats(); entries > 0 && bytes <= 0 {
				t.Fatalf("cache stats inconsistent: %d entries, %d bytes", entries, bytes)
			}
			// Every decode the churn left cached must still match its page:
			// no reader wrote into a shared value, no page changed under a
			// cached decode.
			if err := repo.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
