package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/relstore"
	"repro/internal/treestore"
)

// TestWritePanicReleasesShardMutex pins what a panicking write handler
// leaves behind: a 500, its shard's writer mutex unlocked (later writes do
// not wait out their deadlines behind it), and a failed shard that refuses
// later writes and is never committed again — so a row the handler
// inserted before panicking never becomes durable or visible.
func TestWritePanicReleasesShardMutex(t *testing.T) {
	db := relstore.OpenMemDB()
	defer db.Close()
	trees, err := treestore.NewOnDB(db)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := db.CreateTable(relstore.Schema{
		Name:    "torn",
		Columns: []relstore.Column{{Name: "k", Type: relstore.TInt}},
		Key:     "k",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	s := New(Backend{DBs: []*relstore.DB{db}, Trees: trees}, Config{})
	req := func() *http.Request {
		r := httptest.NewRequest(http.MethodPut, "/v1/trees/t", nil)
		r.SetPathValue("name", "t")
		return r
	}

	boom := s.write("boom", func(*http.Request, int, *commitCollector) (any, error) {
		if err := tab.Insert(relstore.Row{relstore.Int(1)}); err != nil {
			return nil, err
		}
		panic("boom")
	})
	rec := httptest.NewRecorder()
	boom(rec, req())
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler answered %d, want 500", rec.Code)
	}
	if !s.writeMus[0].TryLock() {
		t.Fatal("shard writer mutex still held after the handler panicked")
	}
	s.writeMus[0].Unlock()

	ran := false
	later := s.write("later", func(*http.Request, int, *commitCollector) (any, error) {
		ran = true
		return nil, nil
	})
	rec = httptest.NewRecorder()
	later(rec, req())
	if rec.Code != http.StatusServiceUnavailable || ran {
		t.Fatalf("write to the failed shard answered %d (handler ran: %v), want 503 without running", rec.Code, ran)
	}

	// Shutdown commits every healthy shard; the failed one must be skipped
	// and reported.
	if err := s.Shutdown(context.Background()); err == nil {
		t.Fatal("Shutdown reported no error for the failed shard")
	}
	sn := db.Snapshot()
	defer sn.Close()
	view, err := sn.Table("torn")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := view.Len(); err != nil || n != 0 {
		t.Fatalf("committed torn rows = %d (err %v), want 0", n, err)
	}
}
