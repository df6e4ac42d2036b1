package relstore

import (
	"fmt"
)

// Check verifies the physical and logical integrity of every table in the
// database: B+tree structural invariants (key ordering, uniform depth),
// row decodability against the schema, and bidirectional consistency
// between each table and its secondary indexes (every row has exactly its
// index entries; every index entry resolves to a live row), and coherence
// of the storage engine's decoded-node cache (every cached node still
// re-encodes to its page's bytes). It is the backing of the CLI's fsck
// command. The per-table logic lives on
// TableView.Check, so snapshots can be checked the same way.
func (db *DB) Check() error {
	// Synchronous checkpoint fallback: flush the writeback table first so
	// the page file Check reads matches the WAL-durable state (and so fsck
	// over a copied page file sees everything).
	if err := db.Checkpoint(); err != nil {
		return fmt.Errorf("relstore: pre-check checkpoint: %w", err)
	}
	db.mu.RLock()
	err := db.catalog.Check()
	db.mu.RUnlock()
	if err != nil {
		return fmt.Errorf("relstore: catalog tree: %w", err)
	}
	names, err := db.Tables()
	if err != nil {
		return err
	}
	for _, name := range names {
		t, err := db.Table(name)
		if err != nil {
			return err
		}
		if err := t.Check(); err != nil {
			return err
		}
	}
	return db.store.CheckReadCache()
}
