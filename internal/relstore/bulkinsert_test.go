package relstore

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func bulkSchema(name string, unique bool) Schema {
	return Schema{
		Name: name,
		Columns: []Column{
			{Name: "id", Type: TInt},
			{Name: "name", Type: TString},
			{Name: "score", Type: TFloat},
		},
		Key: "id",
		Indexes: []Index{
			{Name: "by_name", Columns: []string{"name"}, Unique: unique},
			{Name: "by_score", Columns: []string{"score"}},
		},
	}
}

func bulkRows(n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{
			Int(int64(n - 1 - i)), // reverse order: BulkInsert must sort
			Str(fmt.Sprintf("sp%05d", n-1-i)),
			Float(float64(i) * 0.5),
		}
	}
	return rows
}

func TestBulkInsertMatchesInsert(t *testing.T) {
	ctx := context.Background()
	const n = 5000
	bulkDB := OpenMemDB()
	defer bulkDB.Close()
	rowDB := OpenMemDB()
	defer rowDB.Close()
	bt, err := bulkDB.CreateTable(bulkSchema("sp", false))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := rowDB.CreateTable(bulkSchema("sp", false))
	if err != nil {
		t.Fatal(err)
	}
	rows := bulkRows(n)
	if err := bt.BulkInsert(rows); err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if err := rt.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	for _, tab := range []*Table{bt, rt} {
		if err := tab.Check(); err != nil {
			t.Fatalf("%s: %v", tab.Name(), err)
		}
		if got, err := tab.Len(); err != nil || got != n {
			t.Fatalf("Len = %d, %v", got, err)
		}
	}
	// Identical scan results in identical order.
	var bulkSeen, rowSeen []int64
	if err := bt.ScanCtx(ctx, func(r Row) (bool, error) { bulkSeen = append(bulkSeen, r[0].Int64()); return true, nil }); err != nil {
		t.Fatal(err)
	}
	if err := rt.ScanCtx(ctx, func(r Row) (bool, error) { rowSeen = append(rowSeen, r[0].Int64()); return true, nil }); err != nil {
		t.Fatal(err)
	}
	if len(bulkSeen) != len(rowSeen) {
		t.Fatalf("scan lengths %d vs %d", len(bulkSeen), len(rowSeen))
	}
	for i := range bulkSeen {
		if bulkSeen[i] != rowSeen[i] {
			t.Fatalf("scan order diverges at %d: %d vs %d", i, bulkSeen[i], rowSeen[i])
		}
	}
	// Index scans agree too.
	count := 0
	err = bt.IndexScanCtx(ctx, "by_name", []Value{Str("sp00042")}, func(r Row) (bool, error) {
		count++
		if r[0].Int64() != 42 {
			t.Fatalf("by_name hit id %d", r[0].Int64())
		}
		return true, nil
	})
	if err != nil || count != 1 {
		t.Fatalf("index scan count = %d, %v", count, err)
	}
}

func TestBulkInsertDuplicatePrimaryKey(t *testing.T) {
	db := OpenMemDB()
	defer db.Close()
	tab, err := db.CreateTable(bulkSchema("sp", false))
	if err != nil {
		t.Fatal(err)
	}
	rows := bulkRows(10)
	rows = append(rows, rows[3])
	if err := tab.BulkInsert(rows); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("duplicate pk error = %v", err)
	}
}

func TestBulkInsertUniqueIndexViolation(t *testing.T) {
	db := OpenMemDB()
	defer db.Close()
	tab, err := db.CreateTable(bulkSchema("sp", true))
	if err != nil {
		t.Fatal(err)
	}
	rows := bulkRows(10)
	rows[7] = Row{Int(1000), rows[2][1], Float(9)} // same name as rows[2], fresh id
	if err := tab.BulkInsert(rows); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("unique index violation error = %v", err)
	}
}

// TestBulkInsertRejectedBatchLeavesTableUntouched pins the all-or-nothing
// contract of the bulk path: a unique-index violation must be detected
// before the primary tree (or any index) is written.
func TestBulkInsertRejectedBatchLeavesTableUntouched(t *testing.T) {
	db := OpenMemDB()
	defer db.Close()
	tab, err := db.CreateTable(bulkSchema("sp", true))
	if err != nil {
		t.Fatal(err)
	}
	rows := bulkRows(50)
	rows[7] = Row{Int(1000), rows[2][1], Float(9)} // unique-index conflict
	if err := tab.BulkInsert(rows); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("violation error = %v", err)
	}
	if n, err := tab.Len(); err != nil || n != 0 {
		t.Fatalf("rejected batch left %d rows, %v", n, err)
	}
	if err := tab.Check(); err != nil {
		t.Fatalf("table inconsistent after rejected batch: %v", err)
	}
	// A corrected batch still gets the (empty-table) bulk path and works.
	if err := tab.BulkInsert(bulkRows(50)); err != nil {
		t.Fatal(err)
	}
	if err := tab.Check(); err != nil {
		t.Fatal(err)
	}
	if n, err := tab.Len(); err != nil || n != 50 {
		t.Fatalf("Len = %d, %v", n, err)
	}
}

// TestBulkInsertAfterDeleteAll covers the lazily-emptied case: a table
// whose rows were all deleted has Len() == 0 but structurally non-empty
// B+trees (no rebalancing), so BulkInsert must take the row-at-a-time
// fallback instead of BulkLoad.
func TestBulkInsertAfterDeleteAll(t *testing.T) {
	db := OpenMemDB()
	defer db.Close()
	tab, err := db.CreateTable(bulkSchema("sp", false))
	if err != nil {
		t.Fatal(err)
	}
	big := bulkRows(3000) // enough to split all trees past a single leaf
	if err := tab.BulkInsert(big); err != nil {
		t.Fatal(err)
	}
	for _, row := range big {
		if ok, err := tab.Delete(row[0]); err != nil || !ok {
			t.Fatalf("Delete(%v) = %v, %v", row[0], ok, err)
		}
	}
	if n, err := tab.Len(); err != nil || n != 0 {
		t.Fatalf("Len after delete-all = %d, %v", n, err)
	}
	rows := bulkRows(500)
	if err := tab.BulkInsert(rows); err != nil {
		t.Fatalf("BulkInsert into lazily-emptied table: %v", err)
	}
	if err := tab.Check(); err != nil {
		t.Fatal(err)
	}
	if n, err := tab.Len(); err != nil || n != 500 {
		t.Fatalf("Len = %d, %v", n, err)
	}
}

func TestBulkInsertFallbackOnNonEmptyTable(t *testing.T) {
	db := OpenMemDB()
	defer db.Close()
	tab, err := db.CreateTable(bulkSchema("sp", false))
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(Row{Int(100000), Str("pre"), Float(1)}); err != nil {
		t.Fatal(err)
	}
	rows := bulkRows(200)
	if err := tab.BulkInsert(rows); err != nil {
		t.Fatal(err)
	}
	if err := tab.Check(); err != nil {
		t.Fatal(err)
	}
	if got, err := tab.Len(); err != nil || got != 201 {
		t.Fatalf("Len = %d, %v", got, err)
	}
	// A conflicting batch fails on the conflicting row.
	err = tab.BulkInsert([]Row{{Int(100000), Str("again"), Float(2)}})
	if !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("fallback duplicate error = %v", err)
	}
}

func TestBulkInsertSurvivesReopen(t *testing.T) {
	path := t.TempDir() + "/bulk.db"
	db, err := OpenDB(path)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := db.CreateTable(bulkSchema("sp", false))
	if err != nil {
		t.Fatal(err)
	}
	rows := bulkRows(3000)
	if err := tab.BulkInsert(rows); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = OpenDB(path)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tab, err = db.Table("sp")
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Check(); err != nil {
		t.Fatal(err)
	}
	row, ok, err := tab.Get(Int(1234))
	if err != nil || !ok || row[1].Text() != "sp01234" {
		t.Fatalf("reopened Get = %v, %v, %v", row, ok, err)
	}
}
