// Package treestore is Crimson's Tree Repository (§2.1): phylogenetic
// trees stored in relational form with the hierarchical labels of package
// core, supporting random access by species name or evolutionary time
// without loading the whole tree into memory — the paper's explicit design
// requirement ("simulation trees are huge, yet the portions retrieved by a
// single query are relatively small ... which argues against using main
// memory techniques").
//
// Layout per tree T:
//
//	nodes_T   — one row per node: structure, hierarchical-label fields,
//	            depth, root distance (evolutionary time), subtree size;
//	            indexed by name, by root distance, and by parent.
//	layer_T_k — layer k >= 1 of the decomposition (one row per subtree of
//	            layer k-1).
//	subs_T_k  — per-subtree root and source node for every layer.
//
// plus a shared "trees" catalog table.
package treestore

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/phylo"
	"repro/internal/relstore"
	"repro/internal/shard"
)

// Errors returned by the repository.
var (
	ErrNoTree     = errors.New("treestore: no such tree")
	ErrTreeExists = errors.New("treestore: tree already exists")
	ErrBadName    = errors.New("treestore: tree name must match [A-Za-z0-9_-]+")
	ErrNoNode     = errors.New("treestore: no such node")
)

// Store is the Tree Repository over a relational database.
//
// Concurrency: query methods on stored trees (NodeCtx, NodeByNameCtx,
// ChildrenCtx, LCACtx, FrontierCtx, LeavesUnderCtx, ProjectCtx,
// Sample*Ctx) run on the database's read-lock path and may be called from
// many goroutines at once, including while one writer goroutine is loading
// or deleting another tree — the writer simply serializes against each
// individual read operation.
//
// For queries that must never wait on a writer at all — long analytical
// reads overlapping bulk loads and deletes — take a Snapshot: tree handles
// opened from it are bound to the last committed epoch and read lock-free
// against copy-on-write pages, seeing the whole tree exactly as committed
// even while it is concurrently deleted.
//
// Sharding: a Store may span N independent databases (one per shard, each
// its own page file, WAL and epoch machinery). Trees are placed on shards
// by a deterministic hash of the tree name, so every tree's relations live
// wholly on one shard and tree-scoped operations route to exactly one
// database; Trees fans out and merges. Because each shard is its own
// engine with its own writer lock, loads of trees on different shards
// proceed genuinely in parallel — the one-writer-at-a-time contract holds
// per shard, not globally.
type Store struct {
	dbs    []*relstore.DB
	router *shard.Router
}

// dbFor returns the shard database that owns the named tree.
func (s *Store) dbFor(name string) *relstore.DB {
	return s.dbs[s.router.Place(name)]
}

// table is the read surface a stored tree queries against. Both live
// tables (*relstore.Table, which lock per operation) and snapshot views
// (*relstore.TableView, lock-free against a pinned epoch) satisfy it, so
// one Tree implementation serves both paths. Scans are ctx-first: every
// query on a stored tree threads its context down to here, so cancelling
// the context aborts the row stream cooperatively.
type table interface {
	Get(key relstore.Value) (relstore.Row, bool, error)
	GetCtx(ctx context.Context, key relstore.Value) (relstore.Row, bool, error)
	GetBatchCtx(ctx context.Context, keys []relstore.Value) ([]relstore.Row, []bool, error)
	GetLeafCtx(ctx context.Context, key relstore.Value) ([]relstore.Row, error)
	ScanCtx(ctx context.Context, fn func(relstore.Row) (bool, error)) error
	ScanRangeCtx(ctx context.Context, lo, hi relstore.Value, fn func(relstore.Row) (bool, error)) error
	IndexScanCtx(ctx context.Context, index string, vals []relstore.Value, fn func(relstore.Row) (bool, error)) error
	IndexRangeCtx(ctx context.Context, index string, lo, hi relstore.Value, fn func(relstore.Row) (bool, error)) error
	Len() (int, error)
}

// Open opens (creating if needed) a repository in the page file at path.
func Open(path string) (*Store, error) {
	db, err := relstore.OpenDB(path)
	if err != nil {
		return nil, err
	}
	s, err := NewOnDB(db)
	if err != nil {
		db.Close()
		return nil, err
	}
	return s, nil
}

// OpenMem opens an in-memory repository.
func OpenMem() *Store {
	s, err := NewOnDB(relstore.OpenMemDB())
	if err != nil {
		panic("treestore: init mem store: " + err.Error())
	}
	return s
}

// NewOnDB layers a tree repository over an existing relational database,
// so the Tree, Species and Query repositories can share one page file.
func NewOnDB(db *relstore.DB) (*Store, error) {
	return NewOnShards([]*relstore.DB{db}, shard.Single)
}

// NewOnShards layers a tree repository over one database per shard. The
// router decides which shard owns each tree name; it must describe exactly
// len(dbs) shards and must be the same router the databases were written
// under, or reopened trees would be looked up on the wrong shard.
func NewOnShards(dbs []*relstore.DB, router *shard.Router) (*Store, error) {
	if router.N() != len(dbs) {
		return nil, fmt.Errorf("treestore: router covers %d shards, got %d databases", router.N(), len(dbs))
	}
	s := &Store{dbs: dbs, router: router}
	for i, db := range dbs {
		if err := initShard(db); err != nil {
			return nil, fmt.Errorf("treestore: initializing shard %d: %w", i, err)
		}
	}
	return s, nil
}

// NewOnShardsReplica layers a tree repository over replica databases
// without initializing them: the trees catalog table arrives via
// replication, and the repository resolves every table lazily per
// operation anyway (it caches no handles). After a promote, Reload makes
// sure the catalog table exists (it may not on a never-written primary).
func NewOnShardsReplica(dbs []*relstore.DB, router *shard.Router) (*Store, error) {
	if router.N() != len(dbs) {
		return nil, fmt.Errorf("treestore: router covers %d shards, got %d databases", router.N(), len(dbs))
	}
	return &Store{dbs: dbs, router: router}, nil
}

// Reload re-initializes every shard (creating the trees catalog table
// where missing). Called after a promote flips the stores writable.
func (s *Store) Reload() error {
	for i, db := range s.dbs {
		if err := initShard(db); err != nil {
			return fmt.Errorf("treestore: initializing shard %d: %w", i, err)
		}
	}
	return nil
}

func initShard(db *relstore.DB) error {
	_, err := db.Table("trees")
	if errors.Is(err, relstore.ErrNoTable) {
		_, err = db.CreateTable(relstore.Schema{
			Name: "trees",
			Columns: []relstore.Column{
				{Name: "name", Type: relstore.TString},
				{Name: "nodes", Type: relstore.TInt},
				{Name: "leaves", Type: relstore.TInt},
				{Name: "f", Type: relstore.TInt},
				{Name: "layers", Type: relstore.TInt},
				{Name: "depth", Type: relstore.TInt},
			},
			Key: "name",
		})
	}
	return err
}

// Commit flushes buffered pages of every shard to disk. The per-shard
// commits are issued concurrently: each shard's WAL fsync proceeds in
// parallel instead of serializing behind the previous shard's.
func (s *Store) Commit() error {
	if len(s.dbs) == 1 {
		if err := s.dbs[0].Commit(); err != nil {
			return fmt.Errorf("treestore: committing shard 0: %w", err)
		}
		return nil
	}
	errs := make([]error, len(s.dbs))
	var wg sync.WaitGroup
	for i, db := range s.dbs {
		wg.Add(1)
		go func(i int, db *relstore.DB) {
			defer wg.Done()
			if err := db.Commit(); err != nil {
				errs[i] = fmt.Errorf("treestore: committing shard %d: %w", i, err)
			}
		}(i, db)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Close commits and closes every shard's database. All shards are closed
// even if one fails — a broken shard must not leave the others' WALs
// unflushed — and the failures come back joined.
func (s *Store) Close() error {
	return shard.CloseAll(s.dbs)
}

func validName(name string) bool {
	if name == "" {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

func nodesTable(tree string) string        { return "nodes_" + tree }
func layerTable(tree string, k int) string { return fmt.Sprintf("layer_%s_%d", tree, k) }
func subsTable(tree string, k int) string  { return fmt.Sprintf("subs_%s_%d", tree, k) }

// TreeInfo summarizes a stored tree.
type TreeInfo struct {
	Name   string
	Nodes  int
	Leaves int
	F      int
	Layers int
	Depth  int
}

// Progress receives loading status messages (§3 "Messages about the
// loading status ... are dynamically generated and displayed").
type Progress func(msg string)

// Say formats a status message and forwards it; a nil Progress is silent.
func (p Progress) Say(format string, args ...any) {
	if p != nil {
		p(fmt.Sprintf(format, args...))
	}
}

// LoadMetrics receives per-stage wall times of one load, in nanoseconds.
// Written once, on success; the stages partition the load end-to-end:
// hierarchical index construction, row staging, and bulk insert + commit.
type LoadMetrics struct {
	IndexNS  int64
	StageNS  int64
	InsertNS int64
}

// LoadOptions tunes the ingest pipeline. The zero value means serial-like
// defaults: Workers <= 0 uses GOMAXPROCS.
type LoadOptions struct {
	// Workers bounds the fan-out of row staging. Every worker count
	// produces bit-for-bit identical relations; this only trades wall
	// time for CPU.
	Workers int
	// Metrics, when non-nil, receives per-stage timings on success.
	Metrics *LoadMetrics
}

// workerCount resolves the effective fan-out.
func (o LoadOptions) workerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// fanOut splits [0,n) into contiguous ranges and runs fn on up to workers
// goroutines. Ranges are deterministic; fn must only write its own range.
func fanOut(n, workers int, fn func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Load stores the tree under the given name with depth bound f. The tree
// must have preorder IDs (Reindex). Returns a handle for querying.
func (s *Store) Load(name string, t *phylo.Tree, f int, progress Progress) (*Tree, error) {
	return s.LoadOpts(name, t, f, LoadOptions{}, progress)
}

// LoadOpts is Load with pipeline options: row staging fans out across
// opts.Workers goroutines and per-stage timings land in opts.Metrics. The
// stored relations are identical to a serial load at every worker count.
func (s *Store) LoadOpts(name string, t *phylo.Tree, f int, opts LoadOptions, progress Progress) (*Tree, error) {
	if !validName(name) {
		return nil, fmt.Errorf("%w: %q", ErrBadName, name)
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("treestore: invalid tree: %w", err)
	}
	db := s.dbFor(name)
	trees, err := db.Table("trees")
	if err != nil {
		return nil, err
	}
	if _, ok, err := trees.Get(relstore.Str(name)); err != nil {
		return nil, err
	} else if ok {
		return nil, fmt.Errorf("%w: %s", ErrTreeExists, name)
	}

	workers := opts.workerCount()
	var stageNS, insertNS int64

	progress.Say("building hierarchical index (f=%d) over %d nodes", f, t.NumNodes())
	indexStart := time.Now()
	ix, err := core.Build(t, f)
	if err != nil {
		return nil, err
	}

	nodes := t.Nodes()
	// Derived per-node arrays: depth, root distance, subtree size.
	depth := make([]int, len(nodes))
	dist := make([]float64, len(nodes))
	size := make([]int, len(nodes))
	for _, n := range nodes {
		size[n.ID] = 1
		if n.Parent != nil {
			depth[n.ID] = depth[n.Parent.ID] + 1
			dist[n.ID] = dist[n.Parent.ID] + n.Length
		}
	}
	for i := len(nodes) - 1; i >= 0; i-- { // reverse preorder: children first
		if p := nodes[i].Parent; p != nil {
			size[p.ID] += size[nodes[i].ID]
		}
	}
	indexNS := time.Since(indexStart).Nanoseconds()

	progress.Say("creating relations for tree %q", name)
	nodeTab, err := db.CreateTable(relstore.Schema{
		Name: nodesTable(name),
		Columns: []relstore.Column{
			{Name: "id", Type: relstore.TInt},
			{Name: "parent", Type: relstore.TInt},
			{Name: "ord", Type: relstore.TInt},
			{Name: "name", Type: relstore.TString},
			{Name: "length", Type: relstore.TFloat},
			{Name: "depth", Type: relstore.TInt},
			{Name: "dist", Type: relstore.TFloat},
			{Name: "sub", Type: relstore.TInt},
			{Name: "lparent", Type: relstore.TInt},
			{Name: "ldepth", Type: relstore.TInt},
			{Name: "leaf", Type: relstore.TBool},
			{Name: "size", Type: relstore.TInt},
		},
		Key: "id",
		Indexes: []relstore.Index{
			{Name: "by_name", Columns: []string{"name"}},
			{Name: "by_dist", Columns: []string{"dist"}},
			{Name: "by_parent", Columns: []string{"parent"}},
		},
	})
	if err != nil {
		return nil, err
	}
	// Stage all node rows, then hand them to BulkInsert in one batch: the
	// rows are sorted by primary key and built into the primary tree and
	// all three secondary indexes bottom-up (storage.BTree.BulkLoad),
	// instead of one full B+tree descent per row. Staging is the
	// allocation-heavy part of the load and every row is independent, so
	// it fans out across the pipeline workers; rows land at fixed indices,
	// making the batch identical at any worker count.
	l0 := ix.Layers[0]
	stageStart := time.Now()
	nodeRows := make([]relstore.Row, len(nodes))
	fanOut(len(nodes), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			n := nodes[i]
			nodeRows[i] = relstore.Row{
				relstore.Int(int64(n.ID)),
				relstore.Int(int64(l0.Parent[n.ID])),
				relstore.Int(int64(l0.Ord[n.ID])),
				relstore.Str(n.Name),
				relstore.Float(n.Length),
				relstore.Int(int64(depth[n.ID])),
				relstore.Float(dist[n.ID]),
				relstore.Int(int64(l0.Sub[n.ID])),
				relstore.Int(int64(l0.LocalParent[n.ID])),
				relstore.Int(int64(l0.LocalDepth[n.ID])),
				relstore.Bool(n.IsLeaf()),
				relstore.Int(int64(size[n.ID])),
			}
		}
	})
	stageNS += time.Since(stageStart).Nanoseconds()
	progress.Say("staged %d node rows for bulk load (%d workers)", len(nodeRows), workers)
	insertStart := time.Now()
	if err := nodeTab.BulkInsert(nodeRows); err != nil {
		return nil, fmt.Errorf("treestore: bulk loading %d nodes: %w", len(nodeRows), err)
	}
	insertNS += time.Since(insertStart).Nanoseconds()
	progress.Say("loaded %d/%d nodes", len(nodes), len(nodes))

	// Higher layers and per-layer subtree tables, bulk-loaded the same way.
	for k, layer := range ix.Layers {
		subTab, err := db.CreateTable(relstore.Schema{
			Name: subsTable(name, k),
			Columns: []relstore.Column{
				{Name: "id", Type: relstore.TInt},
				{Name: "root", Type: relstore.TInt},
				{Name: "source", Type: relstore.TInt},
			},
			Key: "id",
		})
		if err != nil {
			return nil, err
		}
		layerRef := layer
		stageStart = time.Now()
		subRows := make([]relstore.Row, len(layer.SubRoot))
		fanOut(len(subRows), workers, func(lo, hi int) {
			for sID := lo; sID < hi; sID++ {
				subRows[sID] = relstore.Row{
					relstore.Int(int64(sID)),
					relstore.Int(int64(layerRef.SubRoot[sID])),
					relstore.Int(int64(layerRef.SubSource[sID])),
				}
			}
		})
		stageNS += time.Since(stageStart).Nanoseconds()
		insertStart = time.Now()
		if err := subTab.BulkInsert(subRows); err != nil {
			return nil, err
		}
		insertNS += time.Since(insertStart).Nanoseconds()
		if k == 0 {
			continue
		}
		layTab, err := db.CreateTable(relstore.Schema{
			Name: layerTable(name, k),
			Columns: []relstore.Column{
				{Name: "id", Type: relstore.TInt},
				{Name: "parent", Type: relstore.TInt},
				{Name: "ord", Type: relstore.TInt},
				{Name: "sub", Type: relstore.TInt},
				{Name: "lparent", Type: relstore.TInt},
				{Name: "ldepth", Type: relstore.TInt},
			},
			Key: "id",
		})
		if err != nil {
			return nil, err
		}
		stageStart = time.Now()
		layRows := make([]relstore.Row, len(layer.Parent))
		fanOut(len(layRows), workers, func(lo, hi int) {
			for id := lo; id < hi; id++ {
				layRows[id] = relstore.Row{
					relstore.Int(int64(id)),
					relstore.Int(int64(layerRef.Parent[id])),
					relstore.Int(int64(layerRef.Ord[id])),
					relstore.Int(int64(layerRef.Sub[id])),
					relstore.Int(int64(layerRef.LocalParent[id])),
					relstore.Int(int64(layerRef.LocalDepth[id])),
				}
			}
		})
		stageNS += time.Since(stageStart).Nanoseconds()
		insertStart = time.Now()
		if err := layTab.BulkInsert(layRows); err != nil {
			return nil, err
		}
		insertNS += time.Since(insertStart).Nanoseconds()
	}

	info := TreeInfo{
		Name:   name,
		Nodes:  t.NumNodes(),
		Leaves: t.NumLeaves(),
		F:      f,
		Layers: ix.NumLayers(),
		Depth:  t.MaxDepth(),
	}
	insertStart = time.Now()
	err = trees.Insert(relstore.Row{
		relstore.Str(info.Name),
		relstore.Int(int64(info.Nodes)),
		relstore.Int(int64(info.Leaves)),
		relstore.Int(int64(info.F)),
		relstore.Int(int64(info.Layers)),
		relstore.Int(int64(info.Depth)),
	})
	if err != nil {
		return nil, err
	}
	if err := db.Commit(); err != nil {
		return nil, err
	}
	insertNS += time.Since(insertStart).Nanoseconds()
	if opts.Metrics != nil {
		*opts.Metrics = LoadMetrics{IndexNS: indexNS, StageNS: stageNS, InsertNS: insertNS}
	}
	progress.Say("tree %q committed (%d layers, depth %d)", name, info.Layers, info.Depth)
	return s.Tree(name)
}

// Tree opens a handle on a stored tree over the live tables of its shard.
func (s *Store) Tree(name string) (*Tree, error) {
	db := s.dbFor(name)
	return openTree(name, func(tab string) (table, error) { return db.Table(tab) })
}

// openTree assembles a tree handle from whatever table source it is given
// — the live database or a snapshot.
func openTree(name string, get func(string) (table, error)) (*Tree, error) {
	trees, err := get("trees")
	if err != nil {
		if errors.Is(err, relstore.ErrNoTable) {
			return nil, fmt.Errorf("%w: %s", ErrNoTree, name)
		}
		return nil, err
	}
	row, ok, err := trees.Get(relstore.Str(name))
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTree, name)
	}
	info := decodeInfo(row)
	nodeTab, err := get(nodesTable(name))
	if err != nil {
		return nil, err
	}
	t := &Tree{info: info, nodes: nodeTab}
	for k := 0; k < info.Layers; k++ {
		subTab, err := get(subsTable(name, k))
		if err != nil {
			return nil, err
		}
		t.subs = append(t.subs, subTab)
		if k > 0 {
			layTab, err := get(layerTable(name, k))
			if err != nil {
				return nil, err
			}
			t.layers = append(t.layers, layTab)
		}
	}
	return t, nil
}

func decodeInfo(row relstore.Row) TreeInfo {
	return TreeInfo{
		Name:   row[0].Text(),
		Nodes:  int(row[1].Int64()),
		Leaves: int(row[2].Int64()),
		F:      int(row[3].Int64()),
		Layers: int(row[4].Int64()),
		Depth:  int(row[5].Int64()),
	}
}

// Snap is a point-in-time read view of the Tree Repository. Each shard's
// view is pinned to that shard's last committed epoch — a per-shard epoch
// vector rather than one global number — so tree handles opened from it
// run every query — Project, LCA, Sample, Frontier, MinimalSpanningClade,
// Export — lock-free against copy-on-write pages: a bulk load or delete
// running concurrently can neither block them nor change what they see.
// Cross-shard reads (Trees) are consistent per shard. Close releases every
// pin so superseded pages can be reclaimed.
type Snap struct {
	sns    []*relstore.Snap
	router *shard.Router
}

// Snapshot pins the last committed state of every shard.
func (s *Store) Snapshot() *Snap {
	sns := make([]*relstore.Snap, len(s.dbs))
	for i, db := range s.dbs {
		sns[i] = db.Snapshot()
	}
	return &Snap{sns: sns, router: s.router}
}

// SnapOn wraps an existing relational snapshot (shared with the species
// and query repositories) as a single-shard tree-repository view.
func SnapOn(rs *relstore.Snap) *Snap {
	return &Snap{sns: []*relstore.Snap{rs}, router: shard.Single}
}

// SnapOnShards wraps one relational snapshot per shard as a
// tree-repository view. The router must match the store the snapshots came
// from.
func SnapOnShards(sns []*relstore.Snap, router *shard.Router) *Snap {
	return &Snap{sns: sns, router: router}
}

// Epoch reports the sum of the per-shard committed epochs: a scalar that
// advances whenever any shard commits. Use Epochs for the full vector.
func (sn *Snap) Epoch() uint64 {
	var sum uint64
	for _, rs := range sn.sns {
		sum += rs.Epoch()
	}
	return sum
}

// Epochs reports the per-shard epoch vector this snapshot pins.
func (sn *Snap) Epochs() []uint64 {
	out := make([]uint64, len(sn.sns))
	for i, rs := range sn.sns {
		out[i] = rs.Epoch()
	}
	return out
}

// Close releases every shard's epoch pin. Safe to call multiple times.
func (sn *Snap) Close() {
	for _, rs := range sn.sns {
		rs.Close()
	}
}

// Tree opens a handle on a stored tree as of its shard's snapshot. The
// handle stays fully readable even if the tree is deleted afterwards: it
// either sees the whole tree or (if the tree was not committed when the
// snapshot was taken) ErrNoTree — never a torn state.
func (sn *Snap) Tree(name string) (*Tree, error) {
	rs := sn.sns[sn.router.Place(name)]
	return openTree(name, func(tab string) (table, error) { return rs.Table(tab) })
}

// Delete removes a stored tree and its relations from its shard.
func (s *Store) Delete(name string) error {
	db := s.dbFor(name)
	trees, err := db.Table("trees")
	if err != nil {
		return err
	}
	row, ok, err := trees.Get(relstore.Str(name))
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoTree, name)
	}
	layers := int(row[4].Int64())
	if _, err := trees.Delete(relstore.Str(name)); err != nil {
		return err
	}
	if err := db.DropTable(nodesTable(name)); err != nil {
		return err
	}
	for k := 0; k < layers; k++ {
		if err := db.DropTable(subsTable(name, k)); err != nil {
			return err
		}
		if k > 0 {
			if err := db.DropTable(layerTable(name, k)); err != nil {
				return err
			}
		}
	}
	return db.Commit()
}

// Node is one stored tree node row.
type Node struct {
	ID          int
	Parent      int // -1 for the root
	Ord         int // 1-based child ordinal
	Name        string
	Length      float64
	Depth       int     // edges from root
	Dist        float64 // evolutionary time from root
	Sub         int     // layer-0 subtree
	LocalParent int
	LocalDepth  int
	Leaf        bool
	Size        int // nodes in the subtree rooted here (preorder range length)
}

func decodeNode(row relstore.Row) Node {
	return Node{
		ID:          int(row[0].Int64()),
		Parent:      int(row[1].Int64()),
		Ord:         int(row[2].Int64()),
		Name:        row[3].Text(),
		Length:      row[4].Float64(),
		Depth:       int(row[5].Int64()),
		Dist:        row[6].Float64(),
		Sub:         int(row[7].Int64()),
		LocalParent: int(row[8].Int64()),
		LocalDepth:  int(row[9].Int64()),
		Leaf:        row[10].Truth(),
		Size:        int(row[11].Int64()),
	}
}

// Tree is a handle on one stored tree; every query goes to the relational
// store row by row. A Tree handle is safe for concurrent use by multiple
// goroutines: all methods are read-only. A handle from Store.Tree reads
// the live tables (each operation takes the database read lock, so it
// serializes against the writer per row batch); a handle from Snap.Tree
// reads a pinned snapshot lock-free and is immune to concurrent loads and
// deletes.
type Tree struct {
	info   TreeInfo
	nodes  table
	layers []table // layer 1.. (index 0 = layer 1)
	subs   []table // layer 0..
}

// Info returns the tree's summary.
func (t *Tree) Info() TreeInfo { return t.info }

// NodeCtx fetches a node by preorder id, attributing engine counters to
// the request span carried by ctx, if any.
func (t *Tree) NodeCtx(ctx context.Context, id int) (Node, error) {
	row, ok, err := t.nodes.GetCtx(ctx, relstore.Int(int64(id)))
	if err != nil {
		return Node{}, err
	}
	if !ok {
		return Node{}, fmt.Errorf("%w: id %d", ErrNoNode, id)
	}
	return decodeNode(row), nil
}

// NodeByNameCtx fetches a node by species name under ctx.
func (t *Tree) NodeByNameCtx(ctx context.Context, name string) (Node, error) {
	var found *Node
	err := t.nodes.IndexScanCtx(ctx, "by_name", []relstore.Value{relstore.Str(name)}, func(row relstore.Row) (bool, error) {
		n := decodeNode(row)
		found = &n
		return false, nil
	})
	if err != nil {
		return Node{}, err
	}
	if found == nil {
		return Node{}, fmt.Errorf("%w: name %q", ErrNoNode, name)
	}
	return *found, nil
}

// ChildrenCtx lists a node's children in ordinal order under ctx. The
// by_parent index is keyed (parent, id) and ids are preorder, so siblings
// arrive from the scan already in ordinal order — ordinals are assigned in
// child order and a preorder numbering visits children in that order — and
// no post-hoc sort is needed.
func (t *Tree) ChildrenCtx(ctx context.Context, id int) ([]Node, error) {
	var out []Node
	err := t.nodes.IndexScanCtx(ctx, "by_parent", []relstore.Value{relstore.Int(int64(id))}, func(row relstore.Row) (bool, error) {
		out = append(out, decodeNode(row))
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// layerCell is the subset of fields the LCA recursion needs.
type layerCell struct {
	sub     int
	lparent int
	ldepth  int
}

// cellMemoMax bounds a request-scoped cell memo. Once full the memo keeps
// serving hits but stops admitting new entries, so one adversarial request
// cannot grow it without limit.
const cellMemoMax = 1 << 14

// cellMemoKey addresses one memoized cell: layer and node id.
type cellMemoKey struct{ k, id int }

// cellMemo memoizes the point reads of the layered LCA recursion within
// one request: layer cells by (layer, id), subtree sources by (layer,
// subtree), and full layer-0 node rows by id. Project and
// MinimalSpanningClade run the recursion over many pairs whose ancestor
// chains overlap heavily; the memo collapses those repeat chain walks into
// map hits. It is request-scoped — created per call, never shared across
// requests — and used from a single goroutine, so it needs no locking.
// All methods are nil-safe: a nil memo disables memoization, which is how
// a single-pair LCA runs.
type cellMemo struct {
	m    map[cellMemoKey]layerCell
	subs map[cellMemoKey]int // (layer, subtree) -> source node id
	rows map[int]Node        // layer-0 node rows
}

// newCellMemo returns a request memo seeded with the given layer-0 rows
// and their cells.
func newCellMemo(rows []Node) *cellMemo {
	memo := &cellMemo{
		m:    make(map[cellMemoKey]layerCell),
		subs: make(map[cellMemoKey]int),
		rows: make(map[int]Node),
	}
	for _, r := range rows {
		memo.putRow(r)
		memo.put(0, r.ID, layerCell{sub: r.Sub, lparent: r.LocalParent, ldepth: r.LocalDepth})
	}
	return memo
}

func (m *cellMemo) get(k, id int) (layerCell, bool) {
	if m == nil {
		return layerCell{}, false
	}
	c, ok := m.m[cellMemoKey{k: k, id: id}]
	return c, ok
}

func (m *cellMemo) put(k, id int, c layerCell) {
	if m == nil || len(m.m) >= cellMemoMax {
		return
	}
	m.m[cellMemoKey{k: k, id: id}] = c
}

func (m *cellMemo) getSub(k, s int) (int, bool) {
	if m == nil {
		return 0, false
	}
	src, ok := m.subs[cellMemoKey{k: k, id: s}]
	return src, ok
}

func (m *cellMemo) putSub(k, s, src int) {
	if m == nil || len(m.subs) >= cellMemoMax {
		return
	}
	m.subs[cellMemoKey{k: k, id: s}] = src
}

func (m *cellMemo) getRow(id int) (Node, bool) {
	if m == nil {
		return Node{}, false
	}
	n, ok := m.rows[id]
	return n, ok
}

func (m *cellMemo) putRow(n Node) {
	if m == nil || len(m.rows) >= cellMemoMax {
		return
	}
	m.rows[n.ID] = n
}

// cell fetches the LCA recursion fields of node id at layer k, checking
// ctx first: the layered recursion's loops are chains of point reads, so
// this check is what makes a long LCA (and everything built on it —
// Project, pattern match, clade) abort promptly on cancellation. A non-nil
// memo is consulted before the store and learns every fetch.
func (t *Tree) cell(ctx context.Context, memo *cellMemo, k, id int) (layerCell, error) {
	if err := ctx.Err(); err != nil {
		return layerCell{}, err
	}
	if c, ok := memo.get(k, id); ok {
		return c, nil
	}
	// k comes from stored rows: a live handle whose tree was reloaded
	// underneath it can read a subtree id from the new version that
	// points past this handle's layers.
	if k > len(t.layers) {
		return layerCell{}, fmt.Errorf("%w: layer %d of a %d-layer handle", ErrNoNode, k, len(t.layers)+1)
	}
	// Point-read failures after the context died are reported as the
	// cancellation: a cancelled reader whose snapshot pins were released
	// may hit reclaimed pages, and that must not masquerade as corruption.
	if k == 0 {
		n, err := t.nodeRow(ctx, memo, id)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return layerCell{}, cerr
			}
			return layerCell{}, err
		}
		c := layerCell{sub: n.Sub, lparent: n.LocalParent, ldepth: n.LocalDepth}
		memo.put(k, id, c)
		return c, nil
	}
	if memo != nil {
		// Memoized path: one descent harvests the whole leaf, so chain
		// walks through this region of the layer become map hits.
		rows, err := t.layers[k-1].GetLeafCtx(ctx, relstore.Int(int64(id)))
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return layerCell{}, cerr
			}
			return layerCell{}, err
		}
		hit := false
		var c layerCell
		for _, row := range rows {
			rc := layerCell{
				sub:     int(row[3].Int64()),
				lparent: int(row[4].Int64()),
				ldepth:  int(row[5].Int64()),
			}
			rid := int(row[0].Int64())
			memo.put(k, rid, rc)
			if rid == id {
				c, hit = rc, true
			}
		}
		if !hit {
			return layerCell{}, fmt.Errorf("%w: layer %d id %d", ErrNoNode, k, id)
		}
		return c, nil
	}
	row, ok, err := t.layers[k-1].GetCtx(ctx, relstore.Int(int64(id)))
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return layerCell{}, cerr
		}
		return layerCell{}, err
	}
	if !ok {
		return layerCell{}, fmt.Errorf("%w: layer %d id %d", ErrNoNode, k, id)
	}
	c := layerCell{
		sub:     int(row[3].Int64()),
		lparent: int(row[4].Int64()),
		ldepth:  int(row[5].Int64()),
	}
	memo.put(k, id, c)
	return c, nil
}

// nodeRow fetches a full layer-0 node row through the request memo (if
// any): a miss is one point read (one descent), and the row and its
// layer-0 cell are memoized, so the walk's repeat visits to the same
// ancestor become map hits instead of descents.
func (t *Tree) nodeRow(ctx context.Context, memo *cellMemo, id int) (Node, error) {
	if n, ok := memo.getRow(id); ok {
		return n, nil
	}
	n, err := t.NodeCtx(ctx, id)
	if err != nil {
		return Node{}, err
	}
	memo.putRow(n)
	memo.put(0, n.ID, layerCell{sub: n.Sub, lparent: n.LocalParent, ldepth: n.LocalDepth})
	return n, nil
}

// subSource returns the source node of subtree s at layer k (-1 if none),
// consulting the request memo first: ascend walks the same subtree chains
// for every pair rooted in the same region, and on the memoized path one
// descent harvests the whole leaf of the subtree relation.
func (t *Tree) subSource(ctx context.Context, memo *cellMemo, k, s int) (int, error) {
	if src, ok := memo.getSub(k, s); ok {
		return src, nil
	}
	if k >= len(t.subs) {
		return 0, fmt.Errorf("%w: layer %d of a %d-layer handle", ErrNoNode, k, len(t.subs))
	}
	if memo != nil {
		rows, err := t.subs[k].GetLeafCtx(ctx, relstore.Int(int64(s)))
		if err != nil {
			return 0, err
		}
		hit := false
		src := 0
		for _, row := range rows {
			sid := int(row[0].Int64())
			v := int(row[2].Int64())
			memo.putSub(k, sid, v)
			if sid == s {
				src, hit = v, true
			}
		}
		if !hit {
			return 0, fmt.Errorf("%w: layer %d subtree %d", ErrNoNode, k, s)
		}
		return src, nil
	}
	row, ok, err := t.subs[k].GetCtx(ctx, relstore.Int(int64(s)))
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("%w: layer %d subtree %d", ErrNoNode, k, s)
	}
	return int(row[2].Int64()), nil
}

// LCACtx answers least-common-ancestor queries directly against the stored
// relations under ctx, using the same layered recursion as core.Index but
// fetching only the rows the query touches.
func (t *Tree) LCACtx(ctx context.Context, a, b int) (int, error) {
	return t.lcaAt(ctx, nil, 0, a, b)
}

func (t *Tree) lcaAt(ctx context.Context, memo *cellMemo, k, a, b int) (int, error) {
	ca, err := t.cell(ctx, memo, k, a)
	if err != nil {
		return 0, err
	}
	cb, err := t.cell(ctx, memo, k, b)
	if err != nil {
		return 0, err
	}
	if ca.sub == cb.sub {
		return t.lcaLocal(ctx, memo, k, a, ca, b, cb)
	}
	s, err := t.lcaAt(ctx, memo, k+1, ca.sub, cb.sub)
	if err != nil {
		return 0, err
	}
	ap, capCell, err := t.ascend(ctx, memo, k, a, ca, s)
	if err != nil {
		return 0, err
	}
	bp, cbpCell, err := t.ascend(ctx, memo, k, b, cb, s)
	if err != nil {
		return 0, err
	}
	return t.lcaLocal(ctx, memo, k, ap, capCell, bp, cbpCell)
}

func (t *Tree) lcaLocal(ctx context.Context, memo *cellMemo, k, a int, ca layerCell, b int, cb layerCell) (int, error) {
	for ca.ldepth > cb.ldepth {
		a = ca.lparent
		var err error
		if ca, err = t.cell(ctx, memo, k, a); err != nil {
			return 0, err
		}
	}
	for cb.ldepth > ca.ldepth {
		b = cb.lparent
		var err error
		if cb, err = t.cell(ctx, memo, k, b); err != nil {
			return 0, err
		}
	}
	for a != b {
		var err error
		a = ca.lparent
		if ca, err = t.cell(ctx, memo, k, a); err != nil {
			return 0, err
		}
		b = cb.lparent
		if cb, err = t.cell(ctx, memo, k, b); err != nil {
			return 0, err
		}
	}
	return a, nil
}

func (t *Tree) ascend(ctx context.Context, memo *cellMemo, k, id int, c layerCell, s int) (int, layerCell, error) {
	for c.sub != s {
		src, err := t.subSource(ctx, memo, k, c.sub)
		if err != nil {
			return 0, layerCell{}, err
		}
		id = src
		if c, err = t.cell(ctx, memo, k, id); err != nil {
			return 0, layerCell{}, err
		}
	}
	return id, c, nil
}

// IsAncestorCtx reports whether a is a (non-strict) ancestor of b via the
// LCA identity, under ctx.
func (t *Tree) IsAncestorCtx(ctx context.Context, a, b int) (bool, error) {
	l, err := t.LCACtx(ctx, a, b)
	return l == a, err
}

// FrontierCtx returns the maximal nodes whose root distance exceeds time
// under ctx, found with a range scan on the by_dist index plus one parent
// fetch per candidate — no full-tree traversal. Candidates are collected
// during the scan and their parents fetched afterwards: scan callbacks run
// under the database read lock and must not issue further queries.
func (t *Tree) FrontierCtx(ctx context.Context, time float64) ([]Node, error) {
	var cand []Node
	err := t.nodes.IndexRangeCtx(ctx, "by_dist", relstore.Float(time), relstore.Value{}, func(row relstore.Row) (bool, error) {
		if n := decodeNode(row); n.Dist > time {
			cand = append(cand, n)
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	var out []Node
	for _, n := range cand {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if n.Parent < 0 {
			out = append(out, n)
			continue
		}
		p, err := t.NodeCtx(ctx, n.Parent)
		if err != nil {
			return nil, err
		}
		if p.Dist <= time {
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// LeavesUnderCtx returns the leaves in the clade rooted at id under ctx,
// using the preorder-range property (descendants occupy ids
// [id, id+size)).
func (t *Tree) LeavesUnderCtx(ctx context.Context, id int) ([]Node, error) {
	n, err := t.NodeCtx(ctx, id)
	if err != nil {
		return nil, err
	}
	var out []Node
	err = t.nodes.ScanRangeCtx(ctx, relstore.Int(int64(id)), relstore.Int(int64(id+n.Size)), func(row relstore.Row) (bool, error) {
		c := decodeNode(row)
		if c.Leaf {
			out = append(out, c)
		}
		return true, nil
	})
	return out, err
}

// MinimalSpanningCladeCtx returns all nodes of the clade rooted at the LCA
// of the given nodes under ctx (§2.2: "the set of nodes in the tree rooted
// by their least common ancestor").
func (t *Tree) MinimalSpanningCladeCtx(ctx context.Context, ids []int) ([]Node, error) {
	if len(ids) == 0 {
		return nil, errors.New("treestore: empty node set")
	}
	memo, err := t.seedMemo(ctx, ids)
	if err != nil {
		return nil, err
	}
	l := ids[0]
	for _, id := range ids[1:] {
		var err error
		if l, err = t.lcaAt(ctx, memo, 0, l, id); err != nil {
			return nil, err
		}
	}
	root, err := t.NodeCtx(ctx, l)
	if err != nil {
		return nil, err
	}
	var out []Node
	err = t.nodes.ScanRangeCtx(ctx, relstore.Int(int64(l)), relstore.Int(int64(l+root.Size)), func(row relstore.Row) (bool, error) {
		out = append(out, decodeNode(row))
		return true, nil
	})
	return out, err
}

// SampleUniformCtx draws k distinct random leaves under ctx using
// rejection sampling on the id space (leaves are a large fraction of any
// phylogeny), falling back to a scan when k approaches the leaf count.
func (t *Tree) SampleUniformCtx(ctx context.Context, k int, r *rand.Rand) ([]Node, error) {
	if k < 1 {
		return nil, errors.New("treestore: sample size must be >= 1")
	}
	if k > t.info.Leaves {
		return nil, fmt.Errorf("treestore: sample %d > %d leaves", k, t.info.Leaves)
	}
	if 2*k > t.info.Leaves {
		leaves, err := t.LeavesUnderCtx(ctx, 0)
		if err != nil {
			return nil, err
		}
		for i := 0; i < k; i++ {
			j := i + r.Intn(len(leaves)-i)
			leaves[i], leaves[j] = leaves[j], leaves[i]
		}
		out := leaves[:k]
		sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
		return out, nil
	}
	picked := make(map[int]bool, k)
	var out []Node
	for len(out) < k {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		id := r.Intn(t.info.Nodes)
		if picked[id] {
			continue
		}
		n, err := t.NodeCtx(ctx, id)
		if err != nil {
			return nil, err
		}
		if !n.Leaf {
			continue
		}
		picked[id] = true
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// SampleWithTimeCtx implements the paper's time-constrained sampling
// against the stored tree under ctx: frontier via the distance index, then
// per-frontier quotas with remainder redistribution.
func (t *Tree) SampleWithTimeCtx(ctx context.Context, time float64, k int, r *rand.Rand) ([]Node, error) {
	if k < 1 {
		return nil, errors.New("treestore: sample size must be >= 1")
	}
	frontierCtx, frontierSpan := obs.StartSpan(ctx, "frontier")
	frontier, err := t.FrontierCtx(frontierCtx, time)
	frontierSpan.End()
	if err != nil {
		return nil, err
	}
	if len(frontier) == 0 {
		return nil, fmt.Errorf("treestore: no nodes beyond time %g", time)
	}
	leavesCtx, leavesSpan := obs.StartSpan(ctx, "collect_leaves")
	groups := make([][]Node, len(frontier))
	total := 0
	for i, fn := range frontier {
		if groups[i], err = t.LeavesUnderCtx(leavesCtx, fn.ID); err != nil {
			leavesSpan.End()
			return nil, err
		}
		total += len(groups[i])
	}
	leavesSpan.End()
	if total < k {
		return nil, fmt.Errorf("treestore: only %d leaves beyond time %g < %d", total, time, k)
	}
	quota := make([]int, len(groups))
	for i := range quota {
		quota[i] = k / len(groups)
	}
	for _, i := range r.Perm(len(groups))[:k%len(groups)] {
		quota[i]++
	}
	for {
		excess := 0
		for i := range quota {
			if over := quota[i] - len(groups[i]); over > 0 {
				quota[i] = len(groups[i])
				excess += over
			}
		}
		if excess == 0 {
			break
		}
		for _, i := range r.Perm(len(groups)) {
			if excess == 0 {
				break
			}
			if room := len(groups[i]) - quota[i]; room > 0 {
				take := room
				if take > excess {
					take = excess
				}
				quota[i] += take
				excess -= take
			}
		}
	}
	var out []Node
	for i, g := range groups {
		for j := 0; j < quota[i]; j++ {
			m := j + r.Intn(len(g)-j)
			g[j], g[m] = g[m], g[j]
		}
		out = append(out, g[:quota[i]]...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// fetchNodes fetches the rows for the given ids with one GetBatchCtx
// call, in leaf order (one B+tree descent per distinct leaf). Any missing
// id is an ErrNoNode error.
func (t *Tree) fetchNodes(ctx context.Context, ids []int) ([]Node, error) {
	keys := make([]relstore.Value, len(ids))
	for i, id := range ids {
		keys[i] = relstore.Int(int64(id))
	}
	raw, found, err := t.nodes.GetBatchCtx(ctx, keys)
	if err != nil {
		return nil, err
	}
	rows := make([]Node, len(ids))
	for i, id := range ids {
		if !found[i] {
			return nil, fmt.Errorf("%w: id %d", ErrNoNode, id)
		}
		rows[i] = decodeNode(raw[i])
	}
	return rows, nil
}

// seedMemo builds a request-scoped cell memo for an LCA fold over ids,
// prefetching their rows in one leaf-order batch and seeding the layer-0
// cells. A single id needs no LCA, so it gets a nil memo.
func (t *Tree) seedMemo(ctx context.Context, ids []int) (*cellMemo, error) {
	if len(ids) < 2 {
		return nil, nil
	}
	uniq := append([]int(nil), ids...)
	sort.Ints(uniq)
	n := 0
	for i, id := range uniq {
		if i == 0 || uniq[i-1] != id {
			uniq[n] = id
			n++
		}
	}
	rows, err := t.fetchNodes(ctx, uniq[:n])
	if err != nil {
		return nil, err
	}
	return newCellMemo(rows), nil
}

// ProjectCtx computes the tree projection over the given node ids under
// ctx, directly against the store: ids are sorted (preorder), and the
// rightmost-path insertion runs on stored LCA/depth/distance lookups.
func (t *Tree) ProjectCtx(ctx context.Context, ids []int) (*phylo.Tree, error) {
	if len(ids) == 0 {
		return nil, errors.New("treestore: empty projection set")
	}
	sorted := append([]int(nil), ids...)
	sort.Ints(sorted)
	uniq := sorted[:0]
	for i, id := range sorted {
		if i == 0 || sorted[i-1] != id {
			uniq = append(uniq, id)
		}
	}
	fetchCtx, fetchSpan := obs.StartSpan(ctx, "fetch_nodes")
	rows, err := t.fetchNodes(fetchCtx, uniq)
	fetchSpan.End()
	if err != nil {
		return nil, err
	}
	if len(rows) == 1 {
		tr := phylo.New(&phylo.Node{Name: rows[0].Name})
		tr.Reindex()
		return tr, nil
	}
	type entry struct {
		row Node
		nw  *phylo.Node
	}
	attach := func(parent, child *entry) {
		child.nw.Length = child.row.Dist - parent.row.Dist
		parent.nw.AddChild(child.nw)
	}
	lcaCtx, lcaSpan := obs.StartSpan(ctx, "lca_walk")
	defer lcaSpan.End()
	// The LCA walk runs over a request-scoped memo, seeded with the
	// layer-0 cells of the rows just fetched: consecutive pairs share long
	// ancestor chains, and the memo collapses the repeat chain reads into
	// map hits.
	memo := newCellMemo(rows)
	stack := []*entry{{row: rows[0], nw: &phylo.Node{Name: rows[0].Name}}}
	for _, x := range rows[1:] {
		top := stack[len(stack)-1]
		lid, err := t.lcaAt(lcaCtx, memo, 0, top.row.ID, x.ID)
		if err != nil {
			return nil, err
		}
		lrow, err := t.nodeRow(lcaCtx, memo, lid)
		if err != nil {
			return nil, err
		}
		var last *entry
		for len(stack) > 0 && stack[len(stack)-1].row.Depth > lrow.Depth {
			e := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if last != nil {
				attach(e, last)
			}
			last = e
		}
		if len(stack) > 0 && stack[len(stack)-1].row.ID == lid {
			if last != nil {
				attach(stack[len(stack)-1], last)
			}
		} else {
			le := &entry{row: lrow, nw: &phylo.Node{Name: lrow.Name}}
			if last != nil {
				attach(le, last)
			}
			stack = append(stack, le)
		}
		stack = append(stack, &entry{row: x, nw: &phylo.Node{Name: x.Name}})
	}
	var last *entry
	for len(stack) > 0 {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if last != nil {
			attach(e, last)
		}
		last = e
	}
	tr := phylo.New(last.nw)
	tr.Reindex()
	return tr, nil
}

// ExportCtx rebuilds the complete in-memory tree from the stored relation
// under ctx — the inverse of Load. One primary-key scan; used to hand a
// stored gold tree to in-memory tooling (e.g. the Benchmark Manager). For
// serialization, prefer ExportNewickTo, which streams the Newick text in
// bounded memory instead of materializing the tree.
func (t *Tree) ExportCtx(ctx context.Context) (*phylo.Tree, error) {
	nodes := make([]*phylo.Node, t.info.Nodes)
	err := t.nodes.ScanCtx(ctx, func(row relstore.Row) (bool, error) {
		n := decodeNode(row)
		if n.ID < 0 || n.ID >= len(nodes) {
			return false, fmt.Errorf("treestore: export: node id %d out of range", n.ID)
		}
		pn := &phylo.Node{ID: n.ID, Name: n.Name, Length: n.Length}
		nodes[n.ID] = pn
		if n.Parent >= 0 {
			parent := nodes[n.Parent]
			if parent == nil {
				return false, fmt.Errorf("treestore: export: node %d scanned before parent %d", n.ID, n.Parent)
			}
			parent.AddChild(pn)
		}
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	if len(nodes) == 0 || nodes[0] == nil {
		return nil, fmt.Errorf("%w: export found no root", ErrNoNode)
	}
	out := phylo.New(nodes[0])
	out.Reindex()
	return out, nil
}

// ProjectNamesCtx projects over species names under ctx.
func (t *Tree) ProjectNamesCtx(ctx context.Context, names []string) (*phylo.Tree, error) {
	resolveCtx, resolveSpan := obs.StartSpan(ctx, "resolve_names")
	ids := make([]int, len(names))
	for i, name := range names {
		n, err := t.NodeByNameCtx(resolveCtx, name)
		if err != nil {
			resolveSpan.End()
			return nil, err
		}
		ids[i] = n.ID
	}
	resolveSpan.End()
	return t.ProjectCtx(ctx, ids)
}
