package relstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"iter"
	"sort"
	"sync"

	"repro/internal/storage"
)

// Schema declares a table: its columns, single-column primary key, and
// secondary indexes.
type Schema struct {
	Name    string   `json:"name"`
	Columns []Column `json:"columns"`
	Key     string   `json:"key"` // primary key column name
	Indexes []Index  `json:"indexes,omitempty"`
}

// Column is one typed column of a schema.
type Column struct {
	Name string     `json:"name"`
	Type ColumnType `json:"type"`
}

// Index declares a secondary index over one or more columns.
type Index struct {
	Name    string   `json:"name"`
	Columns []string `json:"columns"`
	Unique  bool     `json:"unique,omitempty"`
}

// Validate checks the schema for structural problems.
func (s *Schema) Validate() error {
	if s.Name == "" {
		return errors.New("relstore: schema without a name")
	}
	if len(s.Columns) == 0 {
		return fmt.Errorf("relstore: table %s has no columns", s.Name)
	}
	seen := make(map[string]bool, len(s.Columns))
	for _, c := range s.Columns {
		if c.Name == "" {
			return fmt.Errorf("relstore: table %s has an unnamed column", s.Name)
		}
		if c.Type < TInt || c.Type > TBool {
			return fmt.Errorf("relstore: table %s column %s has invalid type", s.Name, c.Name)
		}
		if seen[c.Name] {
			return fmt.Errorf("relstore: table %s has duplicate column %s", s.Name, c.Name)
		}
		seen[c.Name] = true
	}
	if _, ok := s.colIndex(s.Key); !ok {
		return fmt.Errorf("relstore: table %s primary key %q is not a column", s.Name, s.Key)
	}
	idxNames := make(map[string]bool, len(s.Indexes))
	for _, ix := range s.Indexes {
		if ix.Name == "" {
			return fmt.Errorf("relstore: table %s has an unnamed index", s.Name)
		}
		if idxNames[ix.Name] {
			return fmt.Errorf("relstore: table %s has duplicate index %s", s.Name, ix.Name)
		}
		idxNames[ix.Name] = true
		if len(ix.Columns) == 0 {
			return fmt.Errorf("relstore: index %s.%s has no columns", s.Name, ix.Name)
		}
		for _, c := range ix.Columns {
			if _, ok := s.colIndex(c); !ok {
				return fmt.Errorf("relstore: index %s.%s references unknown column %q", s.Name, ix.Name, c)
			}
		}
	}
	return nil
}

func (s *Schema) colIndex(name string) (int, bool) {
	for i, c := range s.Columns {
		if c.Name == name {
			return i, true
		}
	}
	return 0, false
}

// Table errors.
var (
	ErrDuplicateKey = errors.New("relstore: duplicate key")
	ErrSchemaRow    = errors.New("relstore: row does not match schema")
	ErrNoIndex      = errors.New("relstore: no such index")
)

// Table is a stored relation: a primary B+tree keyed by the encoded primary
// key holding encoded rows, plus one B+tree per secondary index whose keys
// are (indexed columns..., primary key) and whose values are the encoded
// primary key. The embedded TableView carries the read logic; Table wraps
// each read with the database read lock so live reads coordinate with the
// writer. For reads that must not block behind a writer, take a snapshot
// (DB.Snapshot) and use the snapshot's lock-free views instead.
//
// Concurrency follows the owning DB's discipline: Get, Len and the scan
// methods take the shared database read lock and may run from many
// goroutines at once; Insert, Put, Delete and BulkInsert take the write
// lock. Scan callbacks run under the read lock and must not call back into
// the database (see the DB doc comment).
type Table struct {
	TableView
	db *DB

	// Roots recorded in the catalog; used to detect root movement.
	primaryRoot storage.PageID
	indexRoots  map[string]storage.PageID
}

// Insert adds a new row; it fails with ErrDuplicateKey if the primary key
// (or a unique index entry) already exists.
func (t *Table) Insert(row Row) error {
	if err := t.checkRow(row); err != nil {
		return err
	}
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	return t.insertLocked(row)
}

func (t *Table) insertLocked(row Row) error {
	pk := t.primaryKey(row)
	if ok, err := t.primary.Has(pk); err != nil {
		return err
	} else if ok {
		return fmt.Errorf("%w: %s in %s", ErrDuplicateKey, row[t.keyCol], t.schema.Name)
	}
	return t.write(pk, row, nil)
}

// Put inserts or replaces the row with the same primary key.
func (t *Table) Put(row Row) error {
	if err := t.checkRow(row); err != nil {
		return err
	}
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	pk := t.primaryKey(row)
	oldEnc, ok, err := t.primary.Get(pk)
	if err != nil {
		return err
	}
	var old Row
	if ok {
		if old, err = decodeRow(oldEnc); err != nil {
			return err
		}
	}
	return t.write(pk, row, old)
}

// BulkInsert adds rows in one write-lock acquisition. When the table is
// structurally empty (never written, or freshly created), the rows are
// staged, sorted by primary key, and loaded bottom-up through
// storage.BTree.BulkLoad — the primary tree and every secondary index are
// built with sequential page writes instead of one descent per row. The
// sorted runs (primary plus one per secondary index) are staged on
// concurrent goroutines; only the short BulkLoad publishes that follow run
// serially, so the single-writer commit contract is unchanged. On
// that fast path the batch is all-or-nothing: duplicate primary keys and
// unique-index violations within the batch are detected before anything is
// written. On a non-empty table BulkInsert degrades to the row-at-a-time
// insert path (still under a single lock acquisition); there a conflict
// stops the batch at the offending row and earlier rows remain, exactly as
// with repeated Insert calls.
func (t *Table) BulkInsert(rows []Row) error {
	if len(rows) == 0 {
		return nil
	}
	for _, row := range rows {
		if err := t.checkRow(row); err != nil {
			return err
		}
	}
	t.db.mu.Lock()
	defer t.db.mu.Unlock()

	// The fast path needs every tree structurally empty (BulkLoad's
	// precondition — a lazily-emptied tree may still have internal pages).
	empty, err := t.primary.Empty()
	if err != nil {
		return err
	}
	for _, ix := range t.schema.Indexes {
		if !empty {
			break
		}
		if empty, err = t.indexes[ix.Name].Empty(); err != nil {
			return err
		}
	}
	if !empty {
		for _, row := range rows {
			if err := t.insertLocked(row); err != nil {
				return err
			}
		}
		return nil
	}

	// Stage the primary run and every secondary index's run concurrently —
	// one goroutine per tree. Each run is built from read-only schema state
	// and its own output slice, so the fan-out needs no locking; all sorts
	// and uniqueness checks still finish BEFORE the first tree is written,
	// so a rejected batch leaves the table untouched. Index keys embed the
	// primary key, so full keys are unique; unique indexes additionally
	// reject two rows sharing the indexed-column prefix. Errors surface in
	// the same order as a serial staging pass: primary first, then indexes
	// in schema order.
	pks := make([][]byte, len(rows))
	for i, row := range rows {
		pks[i] = t.primaryKey(row)
	}
	var wg sync.WaitGroup
	prim := make([]storage.KV, len(rows))
	var primErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		order := make([]int, len(rows))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return bytes.Compare(pks[order[a]], pks[order[b]]) < 0 })
		for i, o := range order {
			if i > 0 && bytes.Equal(pks[order[i-1]], pks[o]) {
				primErr = fmt.Errorf("%w: %s in %s", ErrDuplicateKey, rows[o][t.keyCol], t.schema.Name)
				return
			}
			prim[i] = storage.KV{Key: pks[o], Value: encodeRow(rows[o])}
		}
	}()
	indexRuns := make([][]storage.KV, len(t.schema.Indexes))
	indexErrs := make([]error, len(t.schema.Indexes))
	for ixi := range t.schema.Indexes {
		wg.Add(1)
		go func(ixi int) {
			defer wg.Done()
			ix := t.schema.Indexes[ixi]
			entries := make([]storage.KV, len(rows))
			var prefixes [][]byte
			if ix.Unique {
				prefixes = make([][]byte, len(rows))
			}
			for i, row := range rows {
				entries[i] = storage.KV{Key: t.indexKey(ix, row), Value: pks[i]}
				if ix.Unique {
					p, err := t.indexPrefix(ix, t.indexVals(ix, row))
					if err != nil {
						indexErrs[ixi] = err
						return
					}
					prefixes[i] = p
				}
			}
			sort.Slice(entries, func(a, b int) bool { return bytes.Compare(entries[a].Key, entries[b].Key) < 0 })
			if ix.Unique {
				sort.Slice(prefixes, func(a, b int) bool { return bytes.Compare(prefixes[a], prefixes[b]) < 0 })
				for i := 1; i < len(prefixes); i++ {
					if bytes.Equal(prefixes[i-1], prefixes[i]) {
						indexErrs[ixi] = fmt.Errorf("%w: unique index %s.%s", ErrDuplicateKey, t.schema.Name, ix.Name)
						return
					}
				}
			}
			indexRuns[ixi] = entries
		}(ixi)
	}
	wg.Wait()
	if primErr != nil {
		return primErr
	}
	indexEntries := make(map[string][]storage.KV, len(t.schema.Indexes))
	for ixi, ix := range t.schema.Indexes {
		if indexErrs[ixi] != nil {
			return indexErrs[ixi]
		}
		indexEntries[ix.Name] = indexRuns[ixi]
	}

	if err := t.primary.BulkLoad(prim); err != nil {
		return err
	}
	for _, ix := range t.schema.Indexes {
		if err := t.indexes[ix.Name].BulkLoad(indexEntries[ix.Name]); err != nil {
			return err
		}
	}
	return t.db.noteRootsLocked(t)
}

// write stores the row and maintains secondary indexes, removing entries of
// the replaced row (if any). The caller holds the database write lock.
func (t *Table) write(pk []byte, row, old Row) error {
	for _, ix := range t.schema.Indexes {
		if ix.Unique {
			prefix, err := t.indexPrefix(ix, t.indexVals(ix, row))
			if err != nil {
				return err
			}
			c, err := t.indexes[ix.Name].Seek(prefix)
			if err != nil {
				return err
			}
			if c.Valid() && bytes.HasPrefix(c.Key(), prefix) {
				existingPK, err := c.Value()
				if err != nil {
					c.Close()
					return err
				}
				if !bytes.Equal(existingPK, pk) {
					c.Close()
					return fmt.Errorf("%w: unique index %s.%s", ErrDuplicateKey, t.schema.Name, ix.Name)
				}
			}
			c.Close()
		}
	}
	if err := t.primary.Put(pk, encodeRow(row)); err != nil {
		return err
	}
	for _, ix := range t.schema.Indexes {
		tree := t.indexes[ix.Name]
		if old != nil {
			oldKey := t.indexKey(ix, old)
			newKey := t.indexKey(ix, row)
			if !bytes.Equal(oldKey, newKey) {
				if _, err := tree.Delete(oldKey); err != nil {
					return err
				}
			}
		}
		if err := tree.Put(t.indexKey(ix, row), pk); err != nil {
			return err
		}
	}
	return t.db.noteRootsLocked(t)
}

// Delete removes the row with the given primary key, reporting presence.
func (t *Table) Delete(key Value) (bool, error) {
	t.db.mu.Lock()
	defer t.db.mu.Unlock()
	row, ok, err := t.TableView.Get(key)
	if err != nil || !ok {
		return false, err
	}
	pk := t.primaryKey(row)
	if _, err := t.primary.Delete(pk); err != nil {
		return false, err
	}
	for _, ix := range t.schema.Indexes {
		if _, err := t.indexes[ix.Name].Delete(t.indexKey(ix, row)); err != nil {
			return false, err
		}
	}
	return true, t.db.noteRootsLocked(t)
}

// --- locked read wrappers ---------------------------------------------------
//
// Each read method shadows the embedded TableView's with a version that
// holds the database read lock, so live reads never observe a half-applied
// mutation. Snapshot views (Snap.Table) skip the lock entirely.

// Get fetches the row with the given primary key value. Safe for
// concurrent readers.
func (t *Table) Get(key Value) (Row, bool, error) {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	return t.TableView.Get(key)
}

// GetCtx is Get attributing engine counters to the request span carried
// by ctx, if any. Safe for concurrent readers.
func (t *Table) GetCtx(ctx context.Context, key Value) (Row, bool, error) {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	return t.TableView.GetCtx(ctx, key)
}

// GetBatchCtx fetches many rows by primary key under one acquisition of
// the database read lock, sharing B+tree descents across keys that land in
// the same leaf. Results are positional — rows[i]/found[i] answer keys[i].
func (t *Table) GetBatchCtx(ctx context.Context, keys []Value) ([]Row, []bool, error) {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	return t.TableView.GetBatchCtx(ctx, keys)
}

// GetLeafCtx returns the decoded rows of the storage leaf containing (or
// that would contain) key, under one acquisition of the database read
// lock. See TableView.GetLeafCtx.
func (t *Table) GetLeafCtx(ctx context.Context, key Value) ([]Row, error) {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	return t.TableView.GetLeafCtx(ctx, key)
}

// Len returns the row count. Safe for concurrent readers.
func (t *Table) Len() (int, error) {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	return t.TableView.Len()
}

// ScanCtx visits all rows in primary key order under ctx: the scan aborts
// with the context's error once it is done, releasing the read lock — so a
// cancelled request stops pinning the writer out promptly. Safe for
// concurrent readers; the callback must not call back into the database
// (see the DB doc comment).
func (t *Table) ScanCtx(ctx context.Context, fn func(Row) (bool, error)) error {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	return t.TableView.ScanCtx(ctx, fn)
}

// ScanRangeCtx visits rows with primary key in [lo, hi) under ctx; either
// bound may be the zero Value meaning unbounded. Safe for concurrent
// readers.
func (t *Table) ScanRangeCtx(ctx context.Context, lo, hi Value, fn func(Row) (bool, error)) error {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	return t.TableView.ScanRangeCtx(ctx, lo, hi, fn)
}

// Rows returns an iterator over all rows in primary key order under ctx.
// The database read lock is held for the whole iteration — the loop body
// must not call back into the database; prefer a snapshot view's Rows for
// long consumers.
func (t *Table) Rows(ctx context.Context) iter.Seq2[Row, error] {
	return t.RowsRange(ctx, Value{}, Value{})
}

// RowsRange returns an iterator over rows with primary key in [lo, hi)
// under ctx; see Rows for the locking caveat.
func (t *Table) RowsRange(ctx context.Context, lo, hi Value) iter.Seq2[Row, error] {
	return func(yield func(Row, error) bool) {
		t.db.mu.RLock()
		defer t.db.mu.RUnlock()
		for row, err := range t.TableView.RowsRange(ctx, lo, hi) {
			if !yield(row, err) {
				return
			}
		}
	}
}

// IndexScanCtx visits rows whose indexed columns equal vals (a prefix of
// the index columns may be given) under ctx. Rows arrive in index order.
// Safe for concurrent readers.
func (t *Table) IndexScanCtx(ctx context.Context, index string, vals []Value, fn func(Row) (bool, error)) error {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	return t.TableView.IndexScanCtx(ctx, index, vals, fn)
}

// IndexRangeCtx visits rows whose first indexed column lies in [lo, hi)
// under ctx; either bound may be the zero Value for unbounded. Safe for
// concurrent readers.
func (t *Table) IndexRangeCtx(ctx context.Context, index string, lo, hi Value, fn func(Row) (bool, error)) error {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	return t.TableView.IndexRangeCtx(ctx, index, lo, hi, fn)
}

// Check verifies one table (see DB.Check). It runs under the database read
// lock, so checks proceed in parallel with other readers.
func (t *Table) Check() error {
	t.db.mu.RLock()
	defer t.db.mu.RUnlock()
	return t.TableView.Check()
}
