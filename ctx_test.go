// Facade-level tests of the context-first API: snapshot lifetimes bound to
// contexts, and ctx-form queries on stored trees.
package crimson_test

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	crimson "repro"
	"repro/internal/treegen"
)

func TestSnapshotCtxReleasesOnCancel(t *testing.T) {
	repo := crimson.OpenMem()
	defer repo.Close()
	tree, err := treegen.Yule(200, 1, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repo.LoadTree("t", tree, crimson.DefaultFanout, nil); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	snap, err := repo.SnapshotCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := repo.MVCC().OpenSnapshots; got != 1 {
		t.Fatalf("open snapshots after SnapshotCtx = %d, want 1", got)
	}
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for repo.MVCC().OpenSnapshots != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("cancelled SnapshotCtx still pinned after 5s: %+v", repo.MVCC())
		}
		time.Sleep(5 * time.Millisecond)
	}
	snap.Close() // further closes are no-ops, racing the hook is fine
	if got := repo.MVCC().OpenSnapshots; got != 0 {
		t.Fatalf("open snapshots after double close = %d, want 0", got)
	}
}

func TestSnapshotCtxNormalCloseDetachesWatcher(t *testing.T) {
	repo := crimson.OpenMem()
	defer repo.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	snap, err := repo.SnapshotCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	snap.Close()
	if got := repo.MVCC().OpenSnapshots; got != 0 {
		t.Fatalf("open snapshots after Close = %d, want 0", got)
	}
	cancel() // must not double-release or panic
	if got := repo.MVCC().OpenSnapshots; got != 0 {
		t.Fatalf("open snapshots after cancel-after-close = %d, want 0", got)
	}
}

func TestSnapshotCtxRejectsDeadContext(t *testing.T) {
	repo := crimson.OpenMem()
	defer repo.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := repo.SnapshotCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("SnapshotCtx on dead context: err = %v, want context.Canceled", err)
	}
	if got := repo.MVCC().OpenSnapshots; got != 0 {
		t.Fatalf("dead-context SnapshotCtx leaked a pin: %d open", got)
	}
}

// TestStoredTreeCtxQueries drives the ctx forms end to end through the
// facade and checks cancellation.
func TestStoredTreeCtxQueries(t *testing.T) {
	repo := crimson.OpenMem()
	defer repo.Close()
	tree, err := treegen.Yule(300, 1, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	st, err := repo.LoadTree("t", tree, crimson.DefaultFanout, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	var sb strings.Builder
	if err := st.ExportNewickTo(ctx, &sb); err != nil {
		t.Fatal(err)
	}
	full, err := st.ExportCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != crimson.FormatNewick(full) {
		t.Fatal("streamed export differs from materialized export")
	}

	dead, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := st.LCACtx(dead, 1, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("LCACtx on dead context: %v", err)
	}
	if _, err := st.SampleUniformCtx(dead, 5, rand.New(rand.NewSource(1))); !errors.Is(err, context.Canceled) {
		t.Fatalf("SampleUniformCtx on dead context: %v", err)
	}
}

// TestSnapshotTreesPage exercises the facade pagination across a sharded
// in-memory repository.
func TestSnapshotTreesPage(t *testing.T) {
	repo := crimson.OpenMemSharded(3)
	defer repo.Close()
	want := []string{"a", "b", "c", "d", "e", "f", "g"}
	for i, name := range want {
		tree, err := treegen.Yule(30, 1, rand.New(rand.NewSource(int64(i+1))))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := repo.LoadTree(name, tree, crimson.DefaultFanout, nil); err != nil {
			t.Fatal(err)
		}
	}
	snap := repo.Snapshot()
	defer snap.Close()
	var got []string
	after := ""
	for {
		page, next, err := snap.TreesPage(context.Background(), after, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, info := range page {
			got = append(got, info.Name)
		}
		if next == "" {
			break
		}
		after = next
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("paged listing = %v, want %v", got, want)
	}
}
