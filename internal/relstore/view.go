package relstore

import (
	"bytes"
	"context"
	"fmt"
	"iter"

	"repro/internal/obs"
	"repro/internal/storage"
)

// TableView is the lock-free read surface of a table: the schema plus the
// B+trees the reads run against. It comes in two flavors with one code
// path:
//
//   - Embedded in a live *Table, where the trees are the writer's working
//     trees and every read method is wrapped with the database read lock.
//   - Handed out by Snap.Table, where the trees are opened at the roots a
//     snapshot pinned. Those pages are immutable (copy-on-write writers
//     never touch them, and epoch reclamation waits for the snapshot to
//     close), so snapshot views take no locks at all: Get, Scan and the
//     index scans run in parallel with bulk loads, deletes and commits.
//
// Unlike the live Table's scan methods, snapshot-view scan callbacks may
// freely issue further reads on the same view — there is no lock to
// re-enter.
type TableView struct {
	schema  Schema
	keyCol  int
	primary *storage.BTree
	indexes map[string]*storage.BTree
}

// Schema returns a copy of the table's schema.
func (v *TableView) Schema() Schema {
	s := v.schema
	s.Columns = append([]Column(nil), v.schema.Columns...)
	s.Indexes = append([]Index(nil), v.schema.Indexes...)
	return s
}

// Name returns the table name.
func (v *TableView) Name() string { return v.schema.Name }

func (v *TableView) checkRow(row Row) error {
	if len(row) != len(v.schema.Columns) {
		return fmt.Errorf("%w: %d values for %d columns", ErrSchemaRow, len(row), len(v.schema.Columns))
	}
	for i, val := range row {
		if val.Type != v.schema.Columns[i].Type {
			return fmt.Errorf("%w: column %s wants %s, got %s",
				ErrSchemaRow, v.schema.Columns[i].Name, v.schema.Columns[i].Type, val.Type)
		}
	}
	return nil
}

func (v *TableView) primaryKey(row Row) []byte { return EncodeKey(row[v.keyCol]) }

func (v *TableView) indexKey(ix Index, row Row) []byte {
	vals := make([]Value, 0, len(ix.Columns)+1)
	for _, c := range ix.Columns {
		ci, _ := v.schema.colIndex(c)
		vals = append(vals, row[ci])
	}
	vals = append(vals, row[v.keyCol])
	return EncodeKey(vals...)
}

// indexPrefix encodes just the indexed column values, for prefix scans.
func (v *TableView) indexPrefix(ix Index, vals []Value) ([]byte, error) {
	if len(vals) > len(ix.Columns) {
		return nil, fmt.Errorf("relstore: %d values for %d-column index %s", len(vals), len(ix.Columns), ix.Name)
	}
	var key []byte
	for i, val := range vals {
		ci, _ := v.schema.colIndex(ix.Columns[i])
		if val.Type != v.schema.Columns[ci].Type {
			return nil, fmt.Errorf("%w: index %s column %s wants %s, got %s",
				ErrSchemaRow, ix.Name, ix.Columns[i], v.schema.Columns[ci].Type, val.Type)
		}
		key = appendTupleValue(key, val)
	}
	return key, nil
}

func (v *TableView) indexVals(ix Index, row Row) []Value {
	vals := make([]Value, len(ix.Columns))
	for i, c := range ix.Columns {
		ci, _ := v.schema.colIndex(c)
		vals[i] = row[ci]
	}
	return vals
}

func (v *TableView) findIndex(name string) (Index, *storage.BTree, error) {
	for _, ix := range v.schema.Indexes {
		if ix.Name == name {
			return ix, v.indexes[name], nil
		}
	}
	return Index{}, nil, fmt.Errorf("%w: %s.%s", ErrNoIndex, v.schema.Name, name)
}

// Get fetches the row with the given primary key value.
func (v *TableView) Get(key Value) (Row, bool, error) {
	return v.GetCtx(context.Background(), key)
}

// GetCtx is Get attributing engine counters (B+tree descents, page reads,
// pool hits/misses) to the request span carried by ctx, if any.
func (v *TableView) GetCtx(ctx context.Context, key Value) (Row, bool, error) {
	if key.Type != v.schema.Columns[v.keyCol].Type {
		return nil, false, fmt.Errorf("%w: key wants %s, got %s",
			ErrSchemaRow, v.schema.Columns[v.keyCol].Type, key.Type)
	}
	enc, ok, err := v.primary.GetCtx(ctx, EncodeKey(key))
	if err != nil || !ok {
		return nil, false, err
	}
	row, err := decodeRow(enc)
	return row, err == nil, err
}

// GetBatchCtx fetches many rows by primary key in one storage pass:
// encoded keys are handed to the B+tree's batched point read, which visits
// them in sorted order and shares one descent across keys landing in the
// same leaf. Results are positional — rows[i]/found[i] answer keys[i].
func (v *TableView) GetBatchCtx(ctx context.Context, keys []Value) ([]Row, []bool, error) {
	keyType := v.schema.Columns[v.keyCol].Type
	enc := make([][]byte, len(keys))
	for i, key := range keys {
		if key.Type != keyType {
			return nil, nil, fmt.Errorf("%w: key wants %s, got %s",
				ErrSchemaRow, keyType, key.Type)
		}
		enc[i] = EncodeKey(key)
	}
	vals, found, err := v.primary.GetBatch(ctx, enc)
	if err != nil {
		return nil, nil, err
	}
	rows := make([]Row, len(keys))
	for i, val := range vals {
		if !found[i] {
			continue
		}
		if rows[i], err = decodeRow(val); err != nil {
			return nil, nil, err
		}
	}
	return rows, found, nil
}

// GetLeafCtx returns the decoded rows of the storage leaf that contains
// (or would contain) key, in key order. One descent harvests every
// neighboring row the point read already decoded; batch-oriented readers
// memoize them so nearby lookups never descend again. The requested key
// may be absent — callers check the rows they got.
func (v *TableView) GetLeafCtx(ctx context.Context, key Value) ([]Row, error) {
	keyType := v.schema.Columns[v.keyCol].Type
	if key.Type != keyType {
		return nil, fmt.Errorf("%w: key wants %s, got %s", ErrSchemaRow, keyType, key.Type)
	}
	_, vals, err := v.primary.GetLeaf(ctx, EncodeKey(key))
	if err != nil {
		return nil, err
	}
	rows := make([]Row, len(vals))
	for i, val := range vals {
		if rows[i], err = decodeRow(val); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// Len returns the row count.
func (v *TableView) Len() (int, error) {
	return v.primary.Len()
}

// ScanCtx visits all rows in primary key order under ctx: the scan checks
// the context cooperatively and aborts with its error once it is done. The
// callback returns false to stop early.
func (v *TableView) ScanCtx(ctx context.Context, fn func(Row) (bool, error)) error {
	return v.ScanRangeCtx(ctx, Value{}, Value{}, fn)
}

// ScanRangeCtx visits rows with primary key in [lo, hi) under ctx; either
// bound may be the zero Value meaning unbounded.
func (v *TableView) ScanRangeCtx(ctx context.Context, lo, hi Value, fn func(Row) (bool, error)) error {
	var start []byte
	if lo.Type != 0 {
		start = EncodeKey(lo)
	}
	var hiKey []byte
	if hi.Type != 0 {
		hiKey = EncodeKey(hi)
	}
	return v.primary.Scan(ctx, start, func(key, enc []byte) (bool, error) {
		if hiKey != nil && bytes.Compare(key, hiKey) >= 0 {
			return false, nil
		}
		row, err := decodeRow(enc)
		if err != nil {
			return false, err
		}
		return fn(row)
	})
}

// Rows returns an iterator over all rows in primary key order under ctx.
// A scan failure — context cancellation included — is yielded as the final
// pair's error with a nil row.
func (v *TableView) Rows(ctx context.Context) iter.Seq2[Row, error] {
	return v.RowsRange(ctx, Value{}, Value{})
}

// RowsRange returns an iterator over the rows with primary key in [lo, hi)
// under ctx; either bound may be the zero Value for unbounded. Breaking
// out of the loop stops the underlying scan immediately.
func (v *TableView) RowsRange(ctx context.Context, lo, hi Value) iter.Seq2[Row, error] {
	return func(yield func(Row, error) bool) {
		err := v.ScanRangeCtx(ctx, lo, hi, func(row Row) (bool, error) {
			return yield(row, nil), nil
		})
		if err != nil {
			yield(nil, err)
		}
	}
}

// indexRowScan resolves each index entry the underlying scan yields to its
// primary row and hands it to fn. The per-request counter set is resolved
// from ctx once, at closure construction, so the per-entry point reads
// attribute to the request without a per-row context lookup.
func (v *TableView) indexRowScan(ctx context.Context, index string, fn func(Row) (bool, error)) func(key, pk []byte) (bool, error) {
	ctr := obs.CountersFrom(ctx)
	return func(_, pk []byte) (bool, error) {
		enc, ok, err := v.primary.GetC(pk, ctr)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, fmt.Errorf("relstore: index %s.%s points at missing row", v.schema.Name, index)
		}
		row, err := decodeRow(enc)
		if err != nil {
			return false, err
		}
		return fn(row)
	}
}

// IndexScanCtx visits rows whose indexed columns equal vals (a prefix of
// the index columns may be given) under ctx. Rows arrive in index order.
func (v *TableView) IndexScanCtx(ctx context.Context, index string, vals []Value, fn func(Row) (bool, error)) error {
	ix, tree, err := v.findIndex(index)
	if err != nil {
		return err
	}
	prefix, err := v.indexPrefix(ix, vals)
	if err != nil {
		return err
	}
	resolve := v.indexRowScan(ctx, index, fn)
	return tree.Scan(ctx, prefix, func(key, pk []byte) (bool, error) {
		if !bytes.HasPrefix(key, prefix) {
			return false, nil
		}
		return resolve(key, pk)
	})
}

// IndexRangeCtx visits rows whose first indexed column lies in [lo, hi)
// under ctx; either bound may be the zero Value for unbounded.
func (v *TableView) IndexRangeCtx(ctx context.Context, index string, lo, hi Value, fn func(Row) (bool, error)) error {
	ix, tree, err := v.findIndex(index)
	if err != nil {
		return err
	}
	var start []byte
	if lo.Type != 0 {
		if start, err = v.indexPrefix(ix, []Value{lo}); err != nil {
			return err
		}
	}
	var hiKey []byte
	if hi.Type != 0 {
		if hiKey, err = v.indexPrefix(ix, []Value{hi}); err != nil {
			return err
		}
	}
	resolve := v.indexRowScan(ctx, index, fn)
	return tree.Scan(ctx, start, func(key, pk []byte) (bool, error) {
		if hiKey != nil && bytes.Compare(key, hiKey) >= 0 {
			return false, nil
		}
		return resolve(key, pk)
	})
}

// Check verifies one table view: B+tree structural invariants, row
// decodability against the schema, and bidirectional consistency between
// the primary tree and every secondary index.
func (v *TableView) Check() error {
	if err := v.primary.Check(); err != nil {
		return fmt.Errorf("relstore: %s primary tree: %w", v.schema.Name, err)
	}
	for name, tree := range v.indexes {
		if err := tree.Check(); err != nil {
			return fmt.Errorf("relstore: %s index %s tree: %w", v.schema.Name, name, err)
		}
	}
	// Forward pass: every row decodes, matches the schema, is keyed
	// correctly, and owns one entry in every index.
	rows := 0
	c, err := v.primary.First()
	if err != nil {
		return err
	}
	defer c.Close()
	for c.Valid() {
		enc, err := c.Value()
		if err != nil {
			return err
		}
		row, err := decodeRow(enc)
		if err != nil {
			return fmt.Errorf("relstore: %s: undecodable row at key %x: %w", v.schema.Name, c.Key(), err)
		}
		if err := v.checkRow(row); err != nil {
			return fmt.Errorf("relstore: %s: stored row violates schema: %w", v.schema.Name, err)
		}
		if !bytes.Equal(v.primaryKey(row), c.Key()) {
			return fmt.Errorf("relstore: %s: row stored under wrong key %x", v.schema.Name, c.Key())
		}
		for _, ix := range v.schema.Indexes {
			pk, ok, err := v.indexes[ix.Name].Get(v.indexKey(ix, row))
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("relstore: %s: row %s missing from index %s", v.schema.Name, row[v.keyCol], ix.Name)
			}
			if !bytes.Equal(pk, v.primaryKey(row)) {
				return fmt.Errorf("relstore: %s: index %s entry for %s holds wrong primary key", v.schema.Name, ix.Name, row[v.keyCol])
			}
		}
		rows++
		if err := c.Next(); err != nil {
			return err
		}
	}
	// Reverse pass: every index entry points at a live row, and entry
	// counts match the row count (no dangling or duplicate entries).
	for _, ix := range v.schema.Indexes {
		entries := 0
		ic, err := v.indexes[ix.Name].First()
		if err != nil {
			return err
		}
		for ic.Valid() {
			pk, err := ic.Value()
			if err != nil {
				ic.Close()
				return err
			}
			if ok, err := v.primary.Has(pk); err != nil {
				ic.Close()
				return err
			} else if !ok {
				err := fmt.Errorf("relstore: %s: index %s entry %x dangles", v.schema.Name, ix.Name, ic.Key())
				ic.Close()
				return err
			}
			entries++
			if err := ic.Next(); err != nil {
				ic.Close()
				return err
			}
		}
		ic.Close()
		if entries != rows {
			return fmt.Errorf("relstore: %s: index %s has %d entries for %d rows", v.schema.Name, ix.Name, entries, rows)
		}
	}
	return nil
}
