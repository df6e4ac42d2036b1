package queryrepo

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/relstore"
)

func newRepo(t *testing.T) *Repo {
	t.Helper()
	db := relstore.OpenMemDB()
	t.Cleanup(func() { db.Close() })
	r, err := NewOnDB(db)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

type lcaArgs struct {
	Tree string `json:"tree"`
	A    string `json:"a"`
	B    string `json:"b"`
}

func TestRecordAndHistory(t *testing.T) {
	r := newRepo(t)
	e1, err := r.Record("lca", lcaArgs{"gold", "Lla", "Spy"}, "LCA = node 3")
	if err != nil {
		t.Fatal(err)
	}
	if e1.ID != 1 {
		t.Fatalf("first id = %d", e1.ID)
	}
	e2, err := r.Record("project", map[string]any{"leaves": []string{"Bha", "Lla", "Syn"}}, "3-leaf projection")
	if err != nil {
		t.Fatal(err)
	}
	if e2.ID != 2 {
		t.Fatalf("second id = %d", e2.ID)
	}

	hist, err := r.HistoryCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 {
		t.Fatalf("history = %d entries", len(hist))
	}
	if hist[0].ID != 2 || hist[1].ID != 1 {
		t.Fatalf("history not newest-first: %v %v", hist[0].ID, hist[1].ID)
	}
	hist, _ = r.HistoryCtx(context.Background(), 1)
	if len(hist) != 1 || hist[0].Kind != "project" {
		t.Fatalf("limited history = %+v", hist)
	}
}

func TestRerunArgsRoundTrip(t *testing.T) {
	r := newRepo(t)
	orig := lcaArgs{"gold", "Syn", "Lla"}
	e, err := r.Record("lca", orig, "root")
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Get(e.ID)
	if err != nil {
		t.Fatal(err)
	}
	var back lcaArgs
	if err := got.UnmarshalArgs(&back); err != nil {
		t.Fatal(err)
	}
	if back != orig {
		t.Fatalf("args = %+v, want %+v", back, orig)
	}
	if got.Summary != "root" || got.Kind != "lca" {
		t.Fatalf("entry = %+v", got)
	}
	if got.Time.IsZero() {
		t.Fatal("timestamp missing")
	}
}

func TestGetMissing(t *testing.T) {
	r := newRepo(t)
	if _, err := r.Get(42); !errors.Is(err, ErrNoEntry) {
		t.Fatalf("err = %v", err)
	}
	// The internal counter row must not leak.
	r.Record("x", nil, "")
	if _, err := r.Get(-1); !errors.Is(err, ErrNoEntry) {
		t.Fatalf("counter row leaked: %v", err)
	}
}

func TestByKind(t *testing.T) {
	r := newRepo(t)
	r.Record("lca", nil, "1")
	r.Record("sample", nil, "2")
	r.Record("lca", nil, "3")
	got, err := r.ByKindCtx(context.Background(), "lca")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Summary != "1" || got[1].Summary != "3" {
		t.Fatalf("ByKind = %+v", got)
	}
}

func TestClear(t *testing.T) {
	r := newRepo(t)
	r.Record("a", nil, "")
	r.Record("b", nil, "")
	n, err := r.Clear()
	if err != nil || n != 2 {
		t.Fatalf("Clear = %d, %v", n, err)
	}
	hist, _ := r.HistoryCtx(context.Background(), 0)
	if len(hist) != 0 {
		t.Fatalf("history after clear = %d", len(hist))
	}
	// Ids restart after a full clear.
	e, _ := r.Record("c", nil, "")
	if e.ID != 1 {
		t.Fatalf("id after clear = %d", e.ID)
	}
}

func TestIDsPersistAcrossHandles(t *testing.T) {
	db := relstore.OpenMemDB()
	defer db.Close()
	r1, err := NewOnDB(db)
	if err != nil {
		t.Fatal(err)
	}
	r1.Record("x", nil, "")
	r2, err := NewOnDB(db)
	if err != nil {
		t.Fatal(err)
	}
	e, err := r2.Record("y", nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if e.ID != 2 {
		t.Fatalf("id from second handle = %d, want 2", e.ID)
	}
}

// TestConcurrentRecordersAndReaders races many Record goroutines against
// History/ByKind readers (run under -race in CI) and verifies the
// allocated IDs are exactly 1..N with no duplicates.
func TestConcurrentRecordersAndReaders(t *testing.T) {
	ctx := context.Background()
	r := newRepo(t)
	const (
		recorders   = 8
		perRecorder = 25
	)
	var wg sync.WaitGroup
	ids := make([][]int64, recorders)
	errs := make([]error, recorders)
	stop := make(chan struct{})

	// Readers hammer History and ByKind while the recorders run.
	var readerWG sync.WaitGroup
	for g := 0; g < 4; g++ {
		readerWG.Add(1)
		go func(g int) {
			defer readerWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := r.HistoryCtx(ctx, 10); err != nil {
					t.Errorf("reader %d: History: %v", g, err)
					return
				}
				if _, err := r.ByKindCtx(ctx, "lca"); err != nil {
					t.Errorf("reader %d: ByKind: %v", g, err)
					return
				}
			}
		}(g)
	}

	for g := 0; g < recorders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perRecorder; i++ {
				kind := "lca"
				if i%2 == 1 {
					kind = "project"
				}
				e, err := r.Record(kind, map[string]any{"recorder": g, "i": i}, "x")
				if err != nil {
					errs[g] = err
					return
				}
				ids[g] = append(ids[g], e.ID)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()

	seen := make(map[int64]bool)
	for g, list := range ids {
		if errs[g] != nil {
			t.Fatalf("recorder %d: %v", g, errs[g])
		}
		last := int64(0)
		for _, id := range list {
			if seen[id] {
				t.Fatalf("duplicate id %d", id)
			}
			seen[id] = true
			if id <= last {
				t.Fatalf("recorder %d saw non-increasing ids: %d after %d", g, id, last)
			}
			last = id
		}
	}
	total := recorders * perRecorder
	if len(seen) != total {
		t.Fatalf("allocated %d ids, want %d", len(seen), total)
	}
	for id := int64(1); id <= int64(total); id++ {
		if !seen[id] {
			t.Fatalf("id space has a hole at %d", id)
		}
	}

	// The history agrees: every entry present, newest first.
	all, err := r.HistoryCtx(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != total {
		t.Fatalf("history has %d entries, want %d", len(all), total)
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].ID <= all[i].ID {
			t.Fatalf("history out of order at %d: %d then %d", i, all[i-1].ID, all[i].ID)
		}
	}
}
