// Package species is Crimson's Species Repository (§2.1): species data —
// gene sequences and other phenotypic character data — stored separately
// from the tree structure, keyed by (tree, species, kind). The separation
// is the paper's design point: queries are structure-based, so structure
// and bulk species data must not share pages.
package species

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/relstore"
	"repro/internal/seqsim"
	"repro/internal/shard"
)

// ErrNoData is returned when a requested record does not exist.
var ErrNoData = errors.New("species: no such record")

// ErrBadKey is returned when a tree/species/kind key part is invalid
// (callers can distinguish caller mistakes from storage failures).
var ErrBadKey = errors.New("species: invalid key part")

const tableName = "species_data"

// Repo is the species data repository over a relational database. When the
// repository is sharded, species data co-locates with its tree: records
// are routed to the shard that owns the tree they belong to, so a tree and
// its sequences always live (and are deleted) together.
type Repo struct {
	dbs    []*relstore.DB
	tabs   []*relstore.Table // one species_data table per shard
	router *shard.Router
}

func initShard(db *relstore.DB) (*relstore.Table, error) {
	tab, err := db.Table(tableName)
	if errors.Is(err, relstore.ErrNoTable) {
		tab, err = db.CreateTable(relstore.Schema{
			Name: tableName,
			Columns: []relstore.Column{
				{Name: "key", Type: relstore.TString}, // tree/species/kind
				{Name: "tree", Type: relstore.TString},
				{Name: "species", Type: relstore.TString},
				{Name: "kind", Type: relstore.TString},
				{Name: "data", Type: relstore.TBytes},
			},
			Key: "key",
			Indexes: []relstore.Index{
				{Name: "by_species", Columns: []string{"tree", "species"}},
				{Name: "by_tree", Columns: []string{"tree"}},
			},
		})
	}
	return tab, err
}

// NewOnDB layers the repository over an existing database (shared with
// the tree repository).
func NewOnDB(db *relstore.DB) (*Repo, error) {
	return NewOnShards([]*relstore.DB{db}, shard.Single)
}

// NewOnShards layers the repository over one database per shard, using the
// same router as the tree repository so species data lands on its tree's
// shard.
func NewOnShards(dbs []*relstore.DB, router *shard.Router) (*Repo, error) {
	if router.N() != len(dbs) {
		return nil, fmt.Errorf("species: router covers %d shards, got %d databases", router.N(), len(dbs))
	}
	r := &Repo{dbs: dbs, tabs: make([]*relstore.Table, len(dbs)), router: router}
	if err := r.Reload(); err != nil {
		return nil, err
	}
	return r, nil
}

// NewOnShardsReplica layers the repository over replica databases without
// touching them: the live table handles stay unresolved (a replica can
// neither create the table nor accept writes), while snapshot Views — the
// only read path the follower server uses — resolve tables per snapshot
// as usual. After a promote, Reload resolves the live handles.
func NewOnShardsReplica(dbs []*relstore.DB, router *shard.Router) (*Repo, error) {
	if router.N() != len(dbs) {
		return nil, fmt.Errorf("species: router covers %d shards, got %d databases", router.N(), len(dbs))
	}
	return &Repo{dbs: dbs, tabs: make([]*relstore.Table, len(dbs)), router: router}, nil
}

// Reload (re-)resolves the live table handle of every shard, creating the
// table where missing. Called at construction and after a promote flips
// the underlying stores writable.
func (r *Repo) Reload() error {
	for i, db := range r.dbs {
		tab, err := initShard(db)
		if err != nil {
			return fmt.Errorf("species: initializing shard %d: %w", i, err)
		}
		r.tabs[i] = tab
	}
	return nil
}

// tabFor returns the shard table that owns records of the given tree.
func (r *Repo) tabFor(tree string) *relstore.Table {
	return r.tabs[r.router.Place(tree)]
}

// writeTabFor is tabFor for the write paths: on a replica the live handle
// is unresolved, and a clear error beats a nil dereference.
func (r *Repo) writeTabFor(tree string) (*relstore.Table, error) {
	tab := r.tabFor(tree)
	if tab == nil {
		return nil, fmt.Errorf("species: repository is a read-only replica (promote before writing)")
	}
	return tab, nil
}

// readerFor returns a read surface for the shard owning tree plus a
// release func. On a primary it is the live table (release is a no-op);
// on a replica — where live handles stay unresolved because applied
// batches move roots under them — it resolves the table through a fresh
// snapshot pinned at the last applied epoch. A nil reader with nil error
// means the table does not exist yet (no species data ever committed).
func (r *Repo) readerFor(tree string) (reader, func(), error) {
	idx := r.router.Place(tree)
	if tab := r.tabs[idx]; tab != nil {
		return tab, func() {}, nil
	}
	sn := r.dbs[idx].Snapshot()
	tab, err := sn.Table(tableName)
	if errors.Is(err, relstore.ErrNoTable) {
		sn.Close()
		return nil, func() {}, nil
	}
	if err != nil {
		sn.Close()
		return nil, nil, err
	}
	return tab, sn.Close, nil
}

func key(tree, sp, kind string) string { return tree + "/" + sp + "/" + kind }

func validPart(s string) error {
	if s == "" {
		return fmt.Errorf("%w: empty", ErrBadKey)
	}
	if strings.ContainsRune(s, '/') {
		return fmt.Errorf("%w: %q contains '/'", ErrBadKey, s)
	}
	return nil
}

// Put stores (replacing) one record of species data, e.g. kind
// "seq:smallsubunit" or "trait:eyecolor".
func (r *Repo) Put(tree, sp, kind string, data []byte) error {
	for _, part := range []string{tree, sp, kind} {
		if err := validPart(part); err != nil {
			return err
		}
	}
	tab, err := r.writeTabFor(tree)
	if err != nil {
		return err
	}
	return tab.Put(relstore.Row{
		relstore.Str(key(tree, sp, kind)),
		relstore.Str(tree),
		relstore.Str(sp),
		relstore.Str(kind),
		relstore.Blob(data),
	})
}

// reader is the read surface Get and List need; both the live table
// (lock-per-operation) and a snapshot view (lock-free) satisfy it.
type reader interface {
	Get(key relstore.Value) (relstore.Row, bool, error)
	IndexScanCtx(ctx context.Context, index string, vals []relstore.Value, fn func(relstore.Row) (bool, error)) error
}

func getRecord(tab reader, tree, sp, kind string) ([]byte, error) {
	row, ok, err := tab.Get(relstore.Str(key(tree, sp, kind)))
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoData, key(tree, sp, kind))
	}
	return row[4].Bytes(), nil
}

func listRecords(tab reader, tree, sp string) ([]Record, error) {
	var out []Record
	err := tab.IndexScanCtx(context.TODO(), "by_species", []relstore.Value{relstore.Str(tree), relstore.Str(sp)},
		func(row relstore.Row) (bool, error) {
			out = append(out, Record{
				Tree:    row[1].Text(),
				Species: row[2].Text(),
				Kind:    row[3].Text(),
				Data:    row[4].Bytes(),
			})
			return true, nil
		})
	return out, err
}

// Get fetches one record. On a replica repository the read runs against a
// fresh snapshot of the owning shard (the live handle is unresolved).
func (r *Repo) Get(tree, sp, kind string) ([]byte, error) {
	tab, release, err := r.readerFor(tree)
	if err != nil {
		return nil, err
	}
	defer release()
	if tab == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoData, key(tree, sp, kind))
	}
	return getRecord(tab, tree, sp, kind)
}

// Record is one stored species-data item.
type Record struct {
	Tree    string
	Species string
	Kind    string
	Data    []byte
}

// List returns all records for one species of one tree. Like Get it
// falls back to a snapshot read on a replica repository.
func (r *Repo) List(tree, sp string) ([]Record, error) {
	tab, release, err := r.readerFor(tree)
	if err != nil {
		return nil, err
	}
	defer release()
	if tab == nil {
		return nil, nil
	}
	return listRecords(tab, tree, sp)
}

// View is a read-only snapshot view of the species repository: Get and
// List run lock-free against the epoch the snapshot pinned, so they never
// wait behind a bulk load or delete. Records are routed to the snapshot of
// the shard that owns their tree. Tables are resolved lazily — a snapshot
// taken before the repository's first commit simply has no data.
type View struct {
	sns    []*relstore.Snap
	router *shard.Router
}

// ViewOn binds a species view to a relational snapshot (shared with the
// tree and query repositories).
func ViewOn(rs *relstore.Snap) *View {
	return &View{sns: []*relstore.Snap{rs}, router: shard.Single}
}

// ViewOnShards binds a species view to one relational snapshot per shard.
func ViewOnShards(sns []*relstore.Snap, router *shard.Router) *View {
	return &View{sns: sns, router: router}
}

func (v *View) readerFor(tree string) (reader, error) {
	tab, err := v.sns[v.router.Place(tree)].Table(tableName)
	if errors.Is(err, relstore.ErrNoTable) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return tab, nil
}

// Get fetches one record as of the snapshot.
func (v *View) Get(tree, sp, kind string) ([]byte, error) {
	tab, err := v.readerFor(tree)
	if err != nil {
		return nil, err
	}
	if tab == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoData, key(tree, sp, kind))
	}
	return getRecord(tab, tree, sp, kind)
}

// List returns all records for one species of one tree as of the snapshot.
func (v *View) List(tree, sp string) ([]Record, error) {
	tab, err := v.readerFor(tree)
	if err != nil || tab == nil {
		return nil, err
	}
	return listRecords(tab, tree, sp)
}

// Delete removes one record, reporting whether it existed.
func (r *Repo) Delete(tree, sp, kind string) (bool, error) {
	tab, err := r.writeTabFor(tree)
	if err != nil {
		return false, err
	}
	return tab.Delete(relstore.Str(key(tree, sp, kind)))
}

// DeleteTree removes all species data of one tree.
func (r *Repo) DeleteTree(tree string) (int, error) {
	tab, err := r.writeTabFor(tree)
	if err != nil {
		return 0, err
	}
	var keys []string
	err = tab.IndexScanCtx(context.TODO(), "by_tree", []relstore.Value{relstore.Str(tree)}, func(row relstore.Row) (bool, error) {
		keys = append(keys, row[0].Text())
		return true, nil
	})
	if err != nil {
		return 0, err
	}
	for _, k := range keys {
		if _, err := tab.Delete(relstore.Str(k)); err != nil {
			return 0, err
		}
	}
	return len(keys), nil
}

// PutAlignment stores every sequence of an alignment under the given kind
// ("append species data to an existing phylogenetic tree" in the demo's
// loading options). Returns the number of sequences stored.
func (r *Repo) PutAlignment(tree, kind string, aln *seqsim.Alignment) (int, error) {
	for _, name := range aln.Names {
		if err := r.Put(tree, name, kind, aln.Seqs[name]); err != nil {
			return 0, err
		}
	}
	return len(aln.Names), nil
}

// Alignment reassembles an alignment for the given species names from
// records of the given kind.
func (r *Repo) Alignment(tree, kind string, names []string) (*seqsim.Alignment, error) {
	aln := &seqsim.Alignment{Seqs: make(map[string][]byte, len(names))}
	for _, name := range names {
		data, err := r.Get(tree, name, kind)
		if err != nil {
			return nil, err
		}
		aln.Names = append(aln.Names, name)
		aln.Seqs[name] = data
	}
	return aln, nil
}
