package crimson_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	crimson "repro"
	"repro/internal/shard"
	"repro/internal/treegen"
)

// TestShardedRepositoryEndToEnd drives the whole facade surface against a
// 4-shard on-disk repository: loads land on their hashed shards, listing
// merges across shards, species data co-locates with its tree, history
// lives on shard 0, and reopening — with the count auto-detected or given
// explicitly — finds every tree in place.
func TestShardedRepositoryEndToEnd(t *testing.T) {
	ctx := context.Background()
	path := filepath.Join(t.TempDir(), "repo")
	repo, err := crimson.OpenSharded(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	if repo.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", repo.Shards())
	}

	names := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	leaves := map[string]int{}
	for i, name := range names {
		tree, err := treegen.Yule(100+20*i, 1.0, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := repo.LoadTree(name, tree, crimson.DefaultFanout, nil); err != nil {
			t.Fatalf("loading %s: %v", name, err)
		}
		leaves[name] = tree.NumLeaves()
		if err := repo.Species.Put(name, "s1", "seq:test", []byte("ACGT-"+name)); err != nil {
			t.Fatal(err)
		}
	}
	if err := repo.Commit(); err != nil {
		t.Fatal(err)
	}

	// The merged listing sees every tree exactly once, in name order.
	infos, err := repo.Trees.TreesCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(names) {
		t.Fatalf("listing has %d trees, want %d", len(infos), len(names))
	}
	for i := 1; i < len(infos); i++ {
		if infos[i-1].Name >= infos[i].Name {
			t.Fatalf("listing not merged in name order: %q before %q", infos[i-1].Name, infos[i].Name)
		}
	}

	// Queries and species data route to the right shard.
	for _, name := range names {
		st, err := repo.Tree(name)
		if err != nil {
			t.Fatalf("opening %s: %v", name, err)
		}
		if st.Info().Leaves != leaves[name] {
			t.Fatalf("%s has %d leaves, want %d", name, st.Info().Leaves, leaves[name])
		}
		if _, err := st.LCACtx(ctx, 1, 2); err != nil {
			t.Fatalf("LCA on %s: %v", name, err)
		}
		data, err := repo.Species.Get(name, "s1", "seq:test")
		if err != nil || string(data) != "ACGT-"+name {
			t.Fatalf("species data of %s = %q, %v", name, data, err)
		}
	}

	// History records from every load are readable (they live on shard 0).
	entries, err := repo.Queries.ByKindCtx(ctx, "load")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(names) {
		t.Fatalf("history has %d load entries, want %d", len(entries), len(names))
	}
	if err := repo.Check(); err != nil {
		t.Fatal(err)
	}
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen with the count auto-detected from the manifest: deterministic
	// placement means every tree is found again.
	reopened, err := crimson.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Shards() != 4 {
		t.Fatalf("auto-detected %d shards, want 4", reopened.Shards())
	}
	for _, name := range names {
		st, err := reopened.Tree(name)
		if err != nil {
			t.Fatalf("tree %s lost across reopen: %v", name, err)
		}
		if st.Info().Leaves != leaves[name] {
			t.Fatalf("%s has %d leaves after reopen, want %d", name, st.Info().Leaves, leaves[name])
		}
	}
	if err := reopened.Close(); err != nil {
		t.Fatal(err)
	}

	// An explicit matching count is accepted; a mismatch is rejected with
	// the sentinel error before any shard is touched.
	ok, err := crimson.OpenSharded(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	ok.Close()
	if _, err := crimson.OpenSharded(path, 2); !errors.Is(err, shard.ErrShardMismatch) {
		t.Fatalf("shards=2 against a 4-shard repository: err = %v, want ErrShardMismatch", err)
	}
}

// TestSingleFileShardMismatch pins the compatibility rule: a plain page
// file is the 1-shard layout, and asking for more shards on top of it must
// fail loudly instead of scattering future trees.
func TestSingleFileShardMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "repo.crimson")
	repo, err := crimson.OpenSharded(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := treegen.Yule(50, 1.0, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.LoadTree("gold", tree, crimson.DefaultFanout, nil); err != nil {
		t.Fatal(err)
	}
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := crimson.OpenSharded(path, 4); !errors.Is(err, shard.ErrShardMismatch) {
		t.Fatalf("shards=4 against a single page file: err = %v, want ErrShardMismatch", err)
	}
	// And the plain Open path still reads it as before.
	reopened, err := crimson.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Shards() != 1 {
		t.Fatalf("single file detected as %d shards", reopened.Shards())
	}
	if _, err := reopened.Tree("gold"); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentLoadsOnDistinctShards is the router's race test: 8
// goroutines load 8 distinct trees whose names hash to 8 distinct shards,
// fully concurrently — one writer per shard, no shared writer lock. Run
// with -race in CI.
func TestConcurrentLoadsOnDistinctShards(t *testing.T) {
	const shards = 8
	router, err := shard.NewRouter(shards)
	if err != nil {
		t.Fatal(err)
	}
	// Pick one tree name per shard (deterministic scan).
	names := make([]string, shards)
	found := 0
	for i := 0; found < shards; i++ {
		name := fmt.Sprintf("tree%d", i)
		if si := router.Place(name); names[si] == "" {
			names[si] = name
			found++
		}
	}

	repo := crimson.OpenMemSharded(shards)
	defer repo.Close()
	var wg sync.WaitGroup
	errs := make(chan error, shards)
	trees := make([]*crimson.Tree, shards)
	wantNodes := make([]int, shards)
	for i := 0; i < shards; i++ {
		tr, err := treegen.Yule(400+10*i, 1.0, rand.New(rand.NewSource(int64(100+i))))
		if err != nil {
			t.Fatal(err)
		}
		trees[i] = tr
		wantNodes[i] = tr.NumNodes()
	}
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := repo.Trees.Load(names[i], trees[i], crimson.DefaultFanout, nil); err != nil {
				errs <- fmt.Errorf("load %s: %w", names[i], err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i, name := range names {
		st, err := repo.Tree(name)
		if err != nil {
			t.Fatalf("opening %s: %v", name, err)
		}
		if st.Info().Nodes != wantNodes[i] {
			t.Fatalf("%s has %d nodes, want %d", name, st.Info().Nodes, wantNodes[i])
		}
	}
	if err := repo.Check(); err != nil {
		t.Fatalf("post-concurrent-load integrity: %v", err)
	}
}

// TestShardedSnapshotEpochVector verifies the per-shard epoch semantics: a
// commit on one shard advances only that shard's epoch, an open snapshot
// keeps reading its pinned vector, and the aggregate MVCC stats sum across
// shards.
func TestShardedSnapshotEpochVector(t *testing.T) {
	repo := crimson.OpenMemSharded(4)
	defer repo.Close()
	router, err := shard.NewRouter(4)
	if err != nil {
		t.Fatal(err)
	}

	tree, err := treegen.Yule(120, 1.0, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.LoadTree("first", tree, crimson.DefaultFanout, nil); err != nil {
		t.Fatal(err)
	}

	sn := repo.Snapshot()
	defer sn.Close()
	before := sn.Epochs()
	if len(before) != 4 {
		t.Fatalf("epoch vector has %d entries, want 4", len(before))
	}

	// Load a second tree placed on a different shard than "first" and
	// shard 0 (where the history commit lands).
	firstShard := router.Place("first")
	var second string
	for i := 0; ; i++ {
		second = fmt.Sprintf("second%d", i)
		if si := router.Place(second); si != firstShard && si != 0 {
			break
		}
	}
	if _, err := repo.Trees.Load(second, tree, crimson.DefaultFanout, nil); err != nil {
		t.Fatal(err)
	}

	after := repo.MVCCShards()
	secondShard := router.Place(second)
	for i := 0; i < 4; i++ {
		if i == secondShard {
			if after[i].Epoch <= before[i] {
				t.Fatalf("shard %d epoch did not advance across the load", i)
			}
			continue
		}
		if after[i].Epoch != before[i] {
			t.Fatalf("shard %d epoch moved from %d to %d; only shard %d should commit", i, before[i], after[i].Epoch, secondShard)
		}
	}

	// The pinned snapshot still reads its own vector: the second tree is
	// invisible, the first is whole.
	if got := sn.Epochs()[secondShard]; got != before[secondShard] {
		t.Fatalf("snapshot's pinned epoch moved: %d -> %d", before[secondShard], got)
	}
	if _, err := sn.Tree(second); err == nil {
		t.Fatal("snapshot taken before the second load sees it")
	}
	if _, err := sn.Tree("first"); err != nil {
		t.Fatal(err)
	}

	// Aggregate stats sum the vector.
	var sum uint64
	for _, mv := range after {
		sum += mv.Epoch
	}
	if got := repo.MVCC().Epoch; got != sum {
		t.Fatalf("aggregate epoch %d != sum of shard epochs %d", got, sum)
	}
}
