// Package server is crimsond: Crimson's network face. It exposes the
// repository — tree loading, the §2.2 structure queries, species data,
// query history and benchmark runs — over an HTTP/JSON API so that many
// clients can share one long-lived service, the deployment model the
// paper's demo assumed (a shared data-management service for
// phylogenetics groups) and the layer every scaling PR plugs into.
//
// Concurrency discipline: every read request runs against its own MVCC
// snapshot, pinned lazily per shard — a request touching one tree pins
// only that tree's shard. Snapshot reads are lock-free — they never touch
// a database mutex — so queries proceed at full speed while a bulk load or
// delete is in flight, and each request sees a consistent committed state
// (never a half-loaded or half-deleted tree). A semaphore bounds in-flight
// reads (Config.MaxInFlightReads); excess requests queue. Mutations —
// load, delete, species put — serialize on a per-shard writer mutex: each
// shard is its own storage engine with its own single-writer contract, so
// loads of trees on different shards proceed genuinely in parallel.
// Query-history lives on shard 0; read-path records are drained by an
// async recorder goroutine so recording never puts a read behind any
// writer lock. Repeated projections, LCAs, clades and pattern matches are
// served from a bounded LRU result cache keyed by (tree, version), where a
// tree's version is the shard epoch its current incarnation was committed
// at — entries are immutable by construction, since a reload or delete
// moves the version and strands the old keys.
//
// Every read runs under its request's context: a client that disconnects
// or times out aborts the engine scan cooperatively, the request's
// snapshot pins release immediately (no reclamation backlog behind dead
// requests), and the abort is counted in aborted_reads. Tree export
// streams chunked Newick rather than materializing the serialization, and
// the tree and history listings paginate with limit + opaque cursor.
package server

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/benchmark"
	"repro/internal/core"
	"repro/internal/newick"
	"repro/internal/nexus"
	"repro/internal/obs"
	"repro/internal/queryrepo"
	"repro/internal/recon"
	"repro/internal/relstore"
	"repro/internal/repl"
	"repro/internal/shard"
	"repro/internal/species"
	"repro/internal/storage"
	"repro/internal/treecmp"
	"repro/internal/treestore"
)

// Backend bundles the repositories the server exposes. DBs holds one
// relational database per shard; the repositories route tree-scoped
// operations with Router (query history lives on shard 0). A nil Router
// with a single database is normalized to the one-shard layout.
type Backend struct {
	DBs     []*relstore.DB
	Router  *shard.Router
	Trees   *treestore.Store
	Species *species.Repo
	Queries *queryrepo.Repo
	// Follower, when set, marks this server as a read-only replica fed
	// by the given apply loops: writes return 403, reads serve at each
	// shard's last applied epoch, and POST /v1/repl/promote flips the
	// process into a writable primary.
	Follower *repl.Follower
}

// Config tunes the server. The zero value is usable.
type Config struct {
	// Addr is the listen address for Start/ListenAndServe
	// (default ":8321").
	Addr string
	// MaxInFlightReads bounds concurrently executing read requests;
	// excess requests wait for a slot (default 64).
	MaxInFlightReads int
	// ResultCacheSize is the LRU result-cache capacity in entries
	// (default 1024; negative disables caching).
	ResultCacheSize int
	// MaxBodyBytes caps request bodies — tree uploads included
	// (default 256 MiB).
	MaxBodyBytes int64
	// LoadWorkers bounds the ingest pipeline's fan-out — chunked Newick
	// parsing and row staging — per load request (default GOMAXPROCS).
	// Every worker count stores bit-for-bit identical relations.
	LoadWorkers int
	// Logf receives server log lines (nil = silent).
	Logf func(format string, args ...any)
	// Logger receives structured request and slow-query records (nil =
	// fall back to Logf for slow queries, silent otherwise).
	Logger *slog.Logger
	// SlowQueryMS logs any request slower than this many milliseconds
	// together with its full span tree (0 disables). Setting it enables
	// span collection on every request.
	SlowQueryMS int
	// Trace forces span collection on every request, as if each carried
	// ?debug=trace (the span is only echoed in the response when the
	// client actually asks). Off, spans are still collected per request
	// when ?debug=trace or SlowQueryMS asks for them; the engine counters
	// in /metrics are always live.
	Trace bool
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8321"
	}
	if c.MaxInFlightReads == 0 {
		c.MaxInFlightReads = 64
	}
	if c.ResultCacheSize == 0 {
		c.ResultCacheSize = 1024
	}
	if c.ResultCacheSize < 0 {
		c.ResultCacheSize = 0
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 256 << 20
	}
	if c.LoadWorkers <= 0 {
		c.LoadWorkers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Server serves the crimsond HTTP API over one repository.
type Server struct {
	cfg     Config
	be      Backend
	mux     *http.ServeMux
	stats   *serverStats
	cache   *resultCache
	slogger *slog.Logger // nil unless Config.Logger was set
	reqSeq  atomic.Int64 // request-id sequence

	readSem  chan struct{} // bounds in-flight reads
	writeMus []sync.Mutex  // one writer mutex per shard; mutations lock their tree's shard
	// failed marks shards on which a write handler panicked. Storage has
	// no rollback, so whatever the handler applied stays pending; a failed
	// shard is never committed again (set and read under its writeMus).
	failed []bool

	// pubs streams each shard's WAL batches to replication subscribers.
	// Publishers exist on every server (they are inert without
	// subscribers), so any primary can feed followers without restart.
	pubs []*repl.Publisher
	// readOnly is true while this server is an unpromoted follower:
	// writes 403, the result cache and version maps stay cold (epochs
	// move under replication without the write path's invalidation
	// hooks), and reads serve at the last applied epoch.
	readOnly  atomic.Bool
	promoteMu sync.Mutex // serializes POST /v1/repl/promote
	// promoteDegraded is set when a promote attempt failed after the
	// stores were already flipped writable: the server still reports as a
	// follower but nothing is replicating. Surfaced in /v1/repl/status;
	// retrying promote clears it.
	promoteDegraded atomic.Bool
	// streamCtx cancels open replication streams at Shutdown —
	// http.Server.Shutdown waits for active requests, and a stream never
	// ends on its own.
	streamCtx    context.Context
	streamCancel context.CancelFunc

	handleMu sync.Mutex
	handles  map[string]epochHandle // per-tree handles, keyed to the epoch they read
	// vers maps each tree to its version: the shard epoch at which the
	// tree's current incarnation was committed (set by the load path) or
	// first observed (seeded by the read path from a current snapshot).
	// Result-cache keys embed the version, so entries are immutable: a
	// reload or delete moves or removes the version and strands old keys.
	vers map[string]uint64

	recCh     chan histRecord // read-path history records, drained async
	recWG     sync.WaitGroup
	recStart  sync.Once    // lazily spawns recordLoop on the first record
	recMu     sync.RWMutex // guards recCh sends against shutdown close
	recClosed bool

	httpSrv *http.Server
	lnMu    sync.Mutex
	ln      net.Listener
}

// epochHandle is a cached tree handle valid only for requests whose
// snapshot reads the same epoch. The requesting snapshot's pin keeps the
// epoch's pages alive while the handle is in use, so serving a cached
// handle is exactly as safe as opening a fresh one.
type epochHandle struct {
	epoch uint64
	tree  *treestore.Tree
}

// histRecord is one deferred query-history append.
type histRecord struct {
	kind    string
	args    any
	summary string
}

// New builds a server over the backend. Call Start, Serve or
// ListenAndServe to accept connections, or use it directly as an
// http.Handler.
func New(be Backend, cfg Config) *Server {
	cfg = cfg.withDefaults()
	if be.Router == nil {
		r, err := shard.NewRouter(len(be.DBs))
		if err != nil {
			panic("server: backend with no databases: " + err.Error())
		}
		be.Router = r
	}
	// Note: the result cache is built at the configured size even for a
	// follower. It stays naturally unused while readOnly — cache lookups
	// are gated on tree versions (vers), which only the write path seeds —
	// and promote() purges it before the new primary starts writing, so a
	// promoted follower regains caching at full size.
	s := &Server{
		cfg:      cfg,
		be:       be,
		mux:      http.NewServeMux(),
		stats:    newServerStats(),
		cache:    newResultCache(cfg.ResultCacheSize),
		readSem:  make(chan struct{}, cfg.MaxInFlightReads),
		writeMus: make([]sync.Mutex, len(be.DBs)),
		failed:   make([]bool, len(be.DBs)),
		handles:  make(map[string]epochHandle),
		vers:     make(map[string]uint64),
		recCh:    make(chan histRecord, 256),
	}
	s.slogger = cfg.Logger
	s.streamCtx, s.streamCancel = context.WithCancel(context.Background())
	s.readOnly.Store(be.Follower != nil)
	s.pubs = make([]*repl.Publisher, len(be.DBs))
	for i, db := range be.DBs {
		s.pubs[i] = repl.NewPublisher(db.Store())
	}
	s.routes()
	s.replRoutes()
	s.httpSrv = &http.Server{Handler: s}
	return s
}

// recordLoop drains read-path history records onto the write path of
// shard 0, where the query history lives. Taking that shard's writer mutex
// keeps history appends (and especially their commits) from interleaving
// with a half-applied load or delete on the same shard; readers themselves
// never wait on it. Commits (which fsync on file-backed stores and publish
// a new epoch) are throttled to once per recCommitBatch records or
// recCommitInterval, whichever comes first, so a steady query stream costs
// at most ~one fsync per second — not one per query. Records not yet
// committed become durable at the next write endpoint's commit or at
// Shutdown.
func (s *Server) recordLoop() {
	defer s.recWG.Done()
	const (
		recCommitBatch    = 64
		recCommitInterval = time.Second
	)
	recordOne := func(rec histRecord) {
		if _, err := s.be.Queries.Record(rec.kind, rec.args, rec.summary); err != nil {
			s.logf("crimsond: recording %s query: %v", rec.kind, err)
		}
	}
	// capture snapshots the pending records' transaction under the shard-0
	// writer mutex; wait awaits its durability after the mutex is released,
	// so the recorder's fsync coalesces with concurrent write endpoints.
	capture := func() *relstore.CommitWaiter { return s.be.DBs[0].CommitAsync() }
	wait := func(w *relstore.CommitWaiter) {
		if w == nil {
			return
		}
		start := time.Now()
		err := w.Wait()
		s.observeCommitWaiter(context.Background(), w, time.Since(start))
		if err != nil {
			s.logf("crimsond: committing history batch: %v", err)
		}
	}
	pending := 0
	lastCommit := time.Now()
	var flush <-chan time.Time // armed while records await commit
	for {
		select {
		case rec, ok := <-s.recCh:
			if !ok {
				if pending > 0 && s.lockWriter(0) {
					w := capture()
					s.writeMus[0].Unlock()
					wait(w)
				}
				return
			}
			var w *relstore.CommitWaiter
			if !s.lockWriter(0) {
				s.stats.historyDropped.Add(1)
				continue
			}
			recordOne(rec)
			pending++
		drain:
			for pending < 4*recCommitBatch {
				select {
				case more, moreOK := <-s.recCh:
					if !moreOK {
						break drain
					}
					recordOne(more)
					pending++
				default:
					break drain
				}
			}
			if pending >= recCommitBatch || time.Since(lastCommit) >= recCommitInterval {
				w = capture()
				pending = 0
				lastCommit = time.Now()
				flush = nil
			} else if flush == nil {
				flush = time.After(recCommitInterval)
			}
			s.writeMus[0].Unlock()
			wait(w)
		case <-flush:
			flush = nil
			if pending > 0 && s.lockWriter(0) {
				w := capture()
				s.writeMus[0].Unlock()
				pending = 0
				lastCommit = time.Now()
				wait(w)
			}
		}
	}
}

// lockWriter takes shard si's writer mutex and reports true, unless a
// write handler panicked on the shard: then it releases the mutex and
// reports false, so the caller neither writes to nor commits the shard's
// half-applied state.
func (s *Server) lockWriter(si int) bool {
	s.writeMus[si].Lock()
	if s.failed[si] {
		s.writeMus[si].Unlock()
		return false
	}
	return true
}

// failShard marks shard si failed after a panic p in a handler holding its
// writer mutex. Later writes get 503 and nothing commits the shard again;
// committed epochs stay readable, and a restart recovers the shard from
// its last commit.
func (s *Server) failShard(si int, op string, p any) {
	s.failed[si] = true
	s.logf("crimsond: %s panicked; shard %d refuses writes until restart: %v\n%s", op, si, p, debug.Stack())
}

func shardFailedErr(si int) error {
	return &httpErr{status: http.StatusServiceUnavailable,
		msg: fmt.Sprintf("shard %d refuses writes until restart: an earlier write failed mid-way", si)}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	s.mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		s.stats.countRequest("stats")
		start := time.Now()
		snap := s.snapshot()
		writeJSON(w, http.StatusOK, snap)
		s.stats.observeOp("stats", time.Since(start))
	})
	s.mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		io.WriteString(w, metricsText(s.snapshot(), s.stats.histSnapshots()))
	})
	if s.cfg.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}

	s.mux.HandleFunc("GET /v1/trees", s.read("trees", s.handleTrees))
	s.mux.HandleFunc("POST /v1/trees/{name}", s.write("load", s.handleLoad))
	s.mux.HandleFunc("GET /v1/trees/{name}", s.read("info", s.handleInfo))
	s.mux.HandleFunc("DELETE /v1/trees/{name}", s.write("delete", s.handleDelete))
	s.mux.HandleFunc("GET /v1/trees/{name}/project", s.read("project", s.handleProject))
	s.mux.HandleFunc("GET /v1/trees/{name}/lca", s.read("lca", s.handleLCA))
	s.mux.HandleFunc("GET /v1/trees/{name}/sample", s.read("sample", s.handleSample))
	s.mux.HandleFunc("GET /v1/trees/{name}/clade", s.read("clade", s.handleClade))
	s.mux.HandleFunc("POST /v1/trees/{name}/match", s.read("match", s.handleMatch))
	s.mux.HandleFunc("POST /v1/trees/{name}/bench", s.read("bench", s.handleBench))
	s.mux.HandleFunc("GET /v1/trees/{name}/export", s.readStream("export", s.handleExport))

	s.mux.HandleFunc("PUT /v1/trees/{name}/species/{sp}/{kind}", s.write("species_put", s.handleSpeciesPut))
	s.mux.HandleFunc("GET /v1/trees/{name}/species/{sp}/{kind}", s.readText("species_get", s.handleSpeciesGet))
	s.mux.HandleFunc("DELETE /v1/trees/{name}/species/{sp}/{kind}", s.write("species_delete", s.handleSpeciesDelete))
	s.mux.HandleFunc("GET /v1/trees/{name}/species/{sp}", s.read("species_list", s.handleSpeciesList))

	s.mux.HandleFunc("GET /v1/history", s.read("history", s.handleHistory))
	s.mux.HandleFunc("GET /v1/history/{id}", s.read("history_get", s.handleHistoryGet))
}

// ServeHTTP makes the server usable as a plain http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	s.mux.ServeHTTP(w, r)
}

// Start listens on Config.Addr and serves in the background, returning
// once the listener is bound (so Addr reports the real port, ephemeral
// ports included).
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.lnMu.Lock()
	s.ln = ln
	s.lnMu.Unlock()
	go func() {
		if err := s.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.logf("crimsond: serve: %v", err)
		}
	}()
	s.logf("crimsond: listening on %s", ln.Addr())
	return nil
}

// Serve accepts connections on ln until Shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	s.ln = ln
	s.lnMu.Unlock()
	return s.httpSrv.Serve(ln)
}

// ListenAndServe listens on Config.Addr and blocks until Shutdown.
func (s *Server) ListenAndServe() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr reports the bound listen address ("" before Start/Serve).
func (s *Server) Addr() string {
	s.lnMu.Lock()
	defer s.lnMu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown gracefully drains in-flight requests and the async history
// recorder, then commits every shard so buffered query-history records
// (and any other pending pages) reach the page files.
func (s *Server) Shutdown(ctx context.Context) error {
	s.streamCancel() // unhook replication streams so Shutdown can drain
	err := s.httpSrv.Shutdown(ctx)
	for _, p := range s.pubs {
		p.Close()
	}
	s.recMu.Lock()
	if !s.recClosed {
		s.recClosed = true
		close(s.recCh)
	}
	s.recMu.Unlock()
	s.recWG.Wait()
	// Capture every shard's final transaction first, then wait on all of
	// them together: the shards' WAL fsyncs run concurrently instead of
	// back to back.
	waiters := make([]*relstore.CommitWaiter, len(s.be.DBs))
	errs := make([]error, len(waiters))
	for i := range s.be.DBs {
		if !s.lockWriter(i) {
			errs[i] = shardFailedErr(i)
			continue
		}
		waiters[i] = s.be.DBs[i].CommitAsync()
		s.writeMus[i].Unlock()
	}
	var wg sync.WaitGroup
	for i, w := range waiters {
		if w == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w.Wait()
		}()
	}
	wg.Wait()
	for i, cerr := range errs {
		if err == nil && cerr != nil {
			err = fmt.Errorf("committing shard %d: %w", i, cerr)
		}
	}
	return err
}

func (s *Server) snapshot() StatsSnapshot {
	s.handleMu.Lock()
	open := len(s.handles)
	s.handleMu.Unlock()
	st := s.stats.snapshot(s.cache.len(), open)
	st.LoadWorkers = s.cfg.LoadWorkers
	st.Shards = make([]ShardMVCC, len(s.be.DBs))
	for i, db := range s.be.DBs {
		mv := db.MVCC()
		backlog, wal := db.CheckpointBacklog(), db.WALSize()
		st.Epoch += mv.Epoch
		st.OpenSnapshots += mv.OpenSnapshots
		st.PendingReclaimPages += mv.PendingReclaimPages
		st.CheckpointBacklogBytes += backlog
		st.WALBytes += wal
		st.Shards[i] = ShardMVCC{
			Shard:                  i,
			Epoch:                  mv.Epoch,
			OpenSnapshots:          mv.OpenSnapshots,
			PendingReclaimPages:    mv.PendingReclaimPages,
			CheckpointBacklogBytes: backlog,
			WALBytes:               wal,
		}
	}
	rs := s.replStatus()
	st.Repl = &rs
	if gb := obs.GroupBatch.Snapshot(); gb.Count > 0 {
		st.GroupCommit = &GroupCommitStats{
			Batches:  gb.Count,
			Commits:  gb.SumNS / int64(time.Microsecond),
			AvgBatch: float64(gb.SumNS) / float64(time.Microsecond) / float64(gb.Count),
			P50Batch: gb.Quantile(0.50) * 1e6,
			P95Batch: gb.Quantile(0.95) * 1e6,
		}
	}
	return st
}

// reqSnap is the per-request MVCC view: at most one relational snapshot
// per shard, pinned lazily so a request touching a single tree pins only
// that tree's shard. It is opened by the read wrappers and closed when the
// request finishes.
type reqSnap struct {
	s   *Server
	sns []*relstore.Snap // indexed by shard; nil until first touched
}

func (s *Server) openSnap() *reqSnap {
	return &reqSnap{s: s, sns: make([]*relstore.Snap, len(s.be.DBs))}
}

// shard pins (once) and returns the snapshot of shard i. A reqSnap serves
// one request goroutine, so no locking is needed.
func (sn *reqSnap) shard(i int) *relstore.Snap {
	if sn.sns[i] == nil {
		sn.sns[i] = sn.s.be.DBs[i].Snapshot()
	}
	return sn.sns[i]
}

// forTree returns the pinned snapshot of the shard owning the named tree,
// along with the shard index.
func (sn *reqSnap) forTree(name string) (*relstore.Snap, int) {
	i := sn.s.be.Router.Place(name)
	return sn.shard(i), i
}

// treeSnap pins every shard and returns the merged tree-repository view
// (used by cross-shard reads like the tree listing).
func (sn *reqSnap) treeSnap() *treestore.Snap {
	for i := range sn.sns {
		sn.shard(i)
	}
	return treestore.SnapOnShards(sn.sns, sn.s.be.Router)
}

func (sn *reqSnap) close() {
	for _, rs := range sn.sns {
		if rs != nil {
			rs.Close()
		}
	}
}

// treeVer reports the tree's version — the shard epoch its current
// incarnation was committed at — and whether a request whose shard
// snapshot reads epoch ep may use the result cache. A request older than
// the current incarnation must bypass the cache entirely: it sees (and
// must serve) a previous incarnation.
func (s *Server) treeVer(name string, ep uint64) (uint64, bool) {
	s.handleMu.Lock()
	defer s.handleMu.Unlock()
	ver, known := s.vers[name]
	return ver, known && ep >= ver
}

// tree returns a handle on a stored tree as of the request's snapshot,
// reusing the cached handle whenever it reads the same version of the
// tree — tree relations are immutable between loads, so any handle opened
// at or after the version epoch sees identical content, and the request's
// snapshot pin keeps the version's pages alive while the handle is in
// use. On a miss the fresh handle is cached, and trees loaded before the
// server started have their version seeded here — but only from a
// snapshot reading the shard's current published epoch, so a reader
// holding a pre-delete snapshot can never resurrect a dead tree's version
// (dropTree runs strictly after the delete publishes).
func (s *Server) tree(sn *reqSnap, name string) (*treestore.Tree, error) {
	rs, si := sn.forTree(name)
	if s.readOnly.Load() {
		// On a follower, epochs advance under replication without
		// bumpTree/dropTree running, so the handle and version maps
		// would go stale silently. Open fresh against the snapshot;
		// promote purges the maps before re-enabling them.
		return treestore.SnapOn(rs).Tree(name)
	}
	ep := rs.Epoch()
	s.handleMu.Lock()
	h, ok := s.handles[name]
	ver, known := s.vers[name]
	s.handleMu.Unlock()
	if ok && (h.epoch == ep || (known && h.epoch >= ver && ep >= ver)) {
		return h.tree, nil
	}
	t, err := treestore.SnapOn(rs).Tree(name)
	if err != nil {
		return nil, err
	}
	s.handleMu.Lock()
	if _, k := s.vers[name]; !k && s.be.DBs[si].MVCC().Epoch == ep {
		s.vers[name] = ep
	}
	if v, k := s.vers[name]; k && ep >= v {
		if cur, ok := s.handles[name]; !ok || cur.epoch < ep {
			s.handles[name] = epochHandle{epoch: ep, tree: t}
		}
	}
	s.handleMu.Unlock()
	return t, nil
}

// cachePut inserts a computed result under its (tree, version) key. The
// entry is immutable by construction — the key names one incarnation of
// the tree, and the caller proved its snapshot reads that incarnation
// (ep >= ver) — so unrelated commits on the shard are irrelevant and no
// epoch freshness check is needed. The one guard left: the version must
// still be current, so entries for a just-deleted tree are not
// re-inserted after dropTree purged them (they would be unreachable
// anyway, but would sit in the LRU until evicted).
func (s *Server) cachePut(name string, ver uint64, key string, val any) {
	s.handleMu.Lock()
	defer s.handleMu.Unlock()
	if v, ok := s.vers[name]; ok && v == ver {
		s.cache.put(key, val)
	}
}

// bumpTree installs a freshly loaded tree's version (the shard epoch its
// load published at) and drops whatever handle or cached results a
// previous incarnation under the same name left behind. Called by the load
// path after its final commit on the tree's shard.
func (s *Server) bumpTree(name string, si int) {
	ep := s.be.DBs[si].MVCC().Epoch
	s.handleMu.Lock()
	defer s.handleMu.Unlock()
	delete(s.handles, name)
	s.vers[name] = ep
	s.cache.invalidateTree(name)
}

// dropTree removes a deleted tree's version, handle and cached results.
// Called by the delete path after the delete has committed.
func (s *Server) dropTree(name string) {
	s.handleMu.Lock()
	defer s.handleMu.Unlock()
	delete(s.handles, name)
	delete(s.vers, name)
	s.cache.invalidateTree(name)
}

// commitShard commits shard si synchronously, recording the commit's
// latency in the commit histogram and, when the calling request is traced,
// as a "commit" child span with the durability pipeline's stage breakdown.
func (s *Server) commitShard(ctx context.Context, si int) error {
	start := time.Now()
	w := s.be.DBs[si].CommitAsync()
	err := w.Wait()
	s.observeCommitWaiter(ctx, w, time.Since(start))
	return err
}

// observeCommitWaiter records one awaited commit: total latency in the
// commit histogram plus, on traced requests, the pipeline stages as child
// spans — "wal_append" (the WAL write+fsync the commit rode in),
// "group_wait" (time queued behind the group-commit leader) and
// "checkpoint" (an inline backpressure checkpoint, when one ran).
func (s *Server) observeCommitWaiter(ctx context.Context, w *relstore.CommitWaiter, d time.Duration) {
	s.stats.observeCommit(d)
	sp := obs.SpanFrom(ctx)
	if sp == nil {
		return
	}
	sp.AddTimed("commit", d)
	wal := w.WALTime()
	ckpt := w.CheckpointTime()
	if wal > 0 {
		sp.AddTimed("wal_append", wal)
	}
	if gw := d - wal - ckpt; gw > 0 && w.BatchSize() > 0 {
		sp.AddTimed("group_wait", gw)
	}
	if ckpt > 0 {
		sp.AddTimed("checkpoint", ckpt)
	}
}

// commitCollector gathers commits captured while a shard's writer mutex is
// held; the write wrapper awaits their durability after the mutex is
// released. That window — transaction captured, lock released, fsync
// pending — is what lets concurrent write requests coalesce into one WAL
// flush (group commit).
type commitCollector struct {
	s       *Server
	waiters []*relstore.CommitWaiter
}

// commitAsync captures shard si's pending transaction now. Durability is
// awaited by the write wrapper.
func (cc *commitCollector) commitAsync(si int) {
	cc.waiters = append(cc.waiters, cc.s.be.DBs[si].CommitAsync())
}

// wait blocks until every collected commit is durable and returns the
// first error.
func (cc *commitCollector) wait(ctx context.Context) error {
	var firstErr error
	for _, w := range cc.waiters {
		start := time.Now()
		err := w.Wait()
		cc.s.observeCommitWaiter(ctx, w, time.Since(start))
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// --- handler plumbing ------------------------------------------------------

// opCtx is one request's observability state: its id, latency clock and
// (when tracing is on for this request) the root span installed into the
// request context.
type opCtx struct {
	op    string
	rid   string
	start time.Time
	root  *obs.Span // nil when this request is not traced
	debug bool      // client asked for ?debug=trace
}

// beginOp starts per-request observability. A root span is collected
// when the client asks (?debug=trace) or the server is configured to
// (Trace, or a slow-query threshold that may need the tree); otherwise
// the request runs on the nil-span fast path and only the process-global
// engine counters tick.
func (s *Server) beginOp(op string, w http.ResponseWriter, r *http.Request) (*http.Request, *opCtx) {
	oc := &opCtx{op: op, start: time.Now()}
	oc.debug = r.URL.Query().Get("debug") == "trace"
	oc.rid = "r" + strconv.FormatInt(s.reqSeq.Add(1), 10)
	w.Header().Set("X-Request-Id", oc.rid)
	s.setEpochHeader(w)
	if oc.debug || s.cfg.Trace || s.cfg.SlowQueryMS > 0 {
		oc.root = obs.NewRoot(op)
		r = r.WithContext(obs.ContextWithSpan(r.Context(), oc.root))
	}
	return r, oc
}

// endOp closes the request's observability: records the op latency
// histogram, ends the span, and emits the slow-query and structured
// request logs. It returns the span summary when ?debug=trace asked for
// it (nil otherwise).
func (s *Server) endOp(oc *opCtx, err error) *obs.SpanSummary {
	d := time.Since(oc.start)
	s.stats.observeOp(oc.op, d)
	oc.root.End()
	ms := float64(d) / float64(time.Millisecond)
	slow := s.cfg.SlowQueryMS > 0 && d >= time.Duration(s.cfg.SlowQueryMS)*time.Millisecond
	var sum *obs.SpanSummary
	if oc.debug || slow {
		sum = oc.root.Summary()
	}
	if slow {
		tree, _ := json.Marshal(sum)
		if s.slogger != nil {
			s.slogger.Warn("slow query", "op", oc.op, "req_id", oc.rid,
				"duration_ms", ms, "trace", json.RawMessage(tree))
		} else {
			s.logf("crimsond: slow %s req=%s %.1fms trace=%s", oc.op, oc.rid, ms, tree)
		}
	} else if s.slogger != nil {
		if err != nil {
			s.slogger.Info("request", "op", oc.op, "req_id", oc.rid, "duration_ms", ms, "err", err.Error())
		} else {
			s.slogger.Debug("request", "op", oc.op, "req_id", oc.rid, "duration_ms", ms)
		}
	}
	if !oc.debug {
		return nil
	}
	return sum
}

// injectTrace embeds the span summary into a JSON-object response body
// under a "trace" key; non-object payloads are wrapped instead.
func injectTrace(v any, sum *obs.SpanSummary) any {
	b, err := json.Marshal(v)
	if err != nil {
		return v
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil || m == nil {
		return map[string]any{"result": json.RawMessage(b), "trace": sum}
	}
	m["trace"] = sum
	return m
}

// writeFunc is a mutation handler; it runs under its tree's shard writer
// mutex against the live repository. si is the shard index the wrapper
// locked. Handlers whose commit need not publish before their response is
// assembled (species and history writes) register it on cc instead of
// committing inline; the wrapper waits for durability after the shard
// mutex is released.
type writeFunc func(r *http.Request, si int, cc *commitCollector) (any, error)

// readFunc is a query handler; it runs against the request's own MVCC
// snapshot and takes no repository lock.
type readFunc func(r *http.Request, sn *reqSnap) (any, error)

// statusClientClosedRequest is the non-standard (nginx-convention) status
// for requests whose client went away; the response is almost certainly
// unwritable, but the code keeps logs and tests unambiguous.
const statusClientClosedRequest = 499

// abortedByClient reports whether err means the request's own context
// ended the read — the client disconnected or its deadline passed —
// rather than the query failing on its merits.
func abortedByClient(r *http.Request, err error) bool {
	if err == nil || r.Context().Err() == nil {
		return false
	}
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// read wraps a query handler: count it, take a read slot (bounded
// in-flight), pin a snapshot, run under the request context, encode. A nil
// result encodes as 204 No Content. The snapshot closes when the handler
// returns — on cancellation the engine scans abort cooperatively, so a
// disconnected client's epoch pins are released promptly instead of riding
// out the full query.
func (s *Server) read(op string, fn readFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.stats.countRequest(op)
		r, oc := s.beginOp(op, w, r)
		if err := s.awaitMinEpoch(r); err != nil {
			s.endOp(oc, err)
			s.fail(w, errStatus(err), err)
			return
		}
		select {
		case s.readSem <- struct{}{}:
		case <-r.Context().Done():
			s.endOp(oc, errors.New("server overloaded"))
			s.fail(w, http.StatusServiceUnavailable, errors.New("server overloaded"))
			return
		}
		s.stats.inFlightReads.Add(1)
		defer func() {
			s.stats.inFlightReads.Add(-1)
			<-s.readSem
		}()
		sn := s.openSnap()
		defer sn.close()
		v, err := fn(r, sn)
		sum := s.endOp(oc, err)
		if abortedByClient(r, err) {
			s.countAborted(op, err)
			s.fail(w, statusClientClosedRequest, err)
			return
		}
		if err == nil && sum != nil && v != nil {
			v = injectTrace(v, sum)
		}
		s.finish(w, v, err)
	}
}

func (s *Server) countAborted(op string, err error) {
	s.stats.abortedReads.Add(1)
	s.logf("crimsond: %s aborted by client: %v", op, err)
}

// write wraps a mutation handler: one writer at a time per shard. Every
// write endpoint is tree-scoped ({name} in the route), so the wrapper
// routes the request to its shard and locks only that shard's writer
// mutex — mutations on different shards run in parallel while each shard's
// storage engine keeps its single-writer contract.
func (s *Server) write(op string, fn writeFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.stats.countRequest(op)
		r, oc := s.beginOp(op, w, r)
		if s.readOnly.Load() {
			err := &httpErr{status: http.StatusForbidden,
				msg: "this server is a read-only replica; send writes to the primary or promote it"}
			s.endOp(oc, err)
			s.fail(w, errStatus(err), err)
			return
		}
		si := s.be.Router.Place(r.PathValue("name"))
		cc := &commitCollector{s: s}
		v, err := func() (v any, err error) {
			if !s.lockWriter(si) {
				return nil, shardFailedErr(si)
			}
			defer s.writeMus[si].Unlock() // a panicking handler must not wedge the shard
			defer func() {
				// Runs before the unlock: the shard is failed before any
				// other writer can commit what the handler left half done.
				if p := recover(); p != nil {
					s.failShard(si, op, p)
					v, err = nil, &httpErr{status: http.StatusInternalServerError,
						msg: fmt.Sprintf("%s: internal error; shard %d refuses writes until restart", op, si)}
				}
			}()
			return fn(r, si, cc)
		}()
		// Await collected commits outside the shard mutex: the next writer
		// may already be preparing, and its flush coalesces with ours.
		if werr := cc.wait(r.Context()); werr != nil && err == nil {
			v, err = nil, werr
		}
		sum := s.endOp(oc, err)
		if err == nil && sum != nil && v != nil {
			v = injectTrace(v, sum)
		}
		s.finish(w, v, err)
	}
}

// readText wraps a query handler that produces a plain-text body.
func (s *Server) readText(op string, fn func(r *http.Request, sn *reqSnap) (string, string, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.stats.countRequest(op)
		r, oc := s.beginOp(op, w, r)
		if err := s.awaitMinEpoch(r); err != nil {
			s.endOp(oc, err)
			s.fail(w, errStatus(err), err)
			return
		}
		select {
		case s.readSem <- struct{}{}:
		case <-r.Context().Done():
			s.endOp(oc, errors.New("server overloaded"))
			s.fail(w, http.StatusServiceUnavailable, errors.New("server overloaded"))
			return
		}
		s.stats.inFlightReads.Add(1)
		defer func() {
			s.stats.inFlightReads.Add(-1)
			<-s.readSem
		}()
		sn := s.openSnap()
		defer sn.close()
		body, contentType, err := fn(r, sn)
		s.endOp(oc, err)
		if abortedByClient(r, err) {
			s.countAborted(op, err)
			s.fail(w, statusClientClosedRequest, err)
			return
		}
		if err != nil {
			s.fail(w, errStatus(err), err)
			return
		}
		w.Header().Set("Content-Type", contentType)
		io.WriteString(w, body)
	}
}

// startedWriter tracks whether a streaming handler has begun writing its
// body, which decides whether an error can still become a JSON error
// response or must abort the connection.
type startedWriter struct {
	http.ResponseWriter
	started bool
}

func (sw *startedWriter) WriteHeader(status int) {
	sw.started = true
	sw.ResponseWriter.WriteHeader(status)
}

func (sw *startedWriter) Write(p []byte) (int, error) {
	sw.started = true
	return sw.ResponseWriter.Write(p)
}

// readStream wraps a query handler that streams its own response body
// (chunked export). The handler runs under the request context with a
// pinned snapshot, exactly like read; results flow to the client as they
// are produced instead of materializing server-side. An error before the
// first byte becomes a normal JSON error response; an error mid-stream —
// client disconnect included — kills the connection so the client sees
// truncation rather than a clean end of body.
func (s *Server) readStream(op string, fn func(r *http.Request, sn *reqSnap, w http.ResponseWriter) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.stats.countRequest(op)
		r, oc := s.beginOp(op, w, r)
		if err := s.awaitMinEpoch(r); err != nil {
			s.endOp(oc, err)
			s.fail(w, errStatus(err), err)
			return
		}
		select {
		case s.readSem <- struct{}{}:
		case <-r.Context().Done():
			s.endOp(oc, errors.New("server overloaded"))
			s.fail(w, http.StatusServiceUnavailable, errors.New("server overloaded"))
			return
		}
		s.stats.inFlightReads.Add(1)
		defer func() {
			s.stats.inFlightReads.Add(-1)
			<-s.readSem
		}()
		sn := s.openSnap()
		defer sn.close()
		sw := &startedWriter{ResponseWriter: w}
		err := fn(r, sn, sw)
		s.endOp(oc, err)
		if err == nil {
			return
		}
		aborted := abortedByClient(r, err)
		if aborted {
			s.countAborted(op, err)
		}
		if !sw.started {
			if aborted {
				s.fail(w, statusClientClosedRequest, err)
			} else {
				s.fail(w, errStatus(err), err)
			}
			return
		}
		s.logf("crimsond: %s stream cut mid-body: %v", op, err)
		s.stats.errors.Add(1)
		panic(http.ErrAbortHandler)
	}
}

func (s *Server) finish(w http.ResponseWriter, v any, err error) {
	// Refresh the epoch header stamped at beginOp: a write has published
	// a new epoch since, and a min-epoch wait may have ridden out applies.
	s.setEpochHeader(w)
	if err != nil {
		s.fail(w, errStatus(err), err)
		return
	}
	if v == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) fail(w http.ResponseWriter, status int, err error) {
	s.stats.errors.Add(1)
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// httpErr carries an explicit status (bad parameters and the like).
type httpErr struct {
	status int
	msg    string
}

func (e *httpErr) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpErr{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func errStatus(err error) int {
	var he *httpErr
	switch {
	case errors.As(err, &he):
		return he.status
	case errors.Is(err, treestore.ErrNoTree), errors.Is(err, treestore.ErrNoNode),
		errors.Is(err, species.ErrNoData), errors.Is(err, queryrepo.ErrNoEntry):
		return http.StatusNotFound
	case errors.Is(err, treestore.ErrTreeExists):
		return http.StatusConflict
	case errors.Is(err, storage.ErrSnapshotInvalidated):
		// A replica apply invalidated the request's snapshot mid-read.
		// 409 is what the client failover path retries against another
		// base (typically the primary).
		return http.StatusConflict
	case errors.Is(err, treestore.ErrBadName), errors.Is(err, species.ErrBadKey),
		errors.Is(err, newick.ErrSyntax):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

func infoJSON(i treestore.TreeInfo) TreeInfo {
	return TreeInfo{Name: i.Name, Nodes: i.Nodes, Leaves: i.Leaves, F: i.F, Layers: i.Layers, Depth: i.Depth}
}

func nodeJSON(n treestore.Node) Node {
	return Node{ID: n.ID, Parent: n.Parent, Name: n.Name, Length: n.Length,
		Depth: n.Depth, Dist: n.Dist, Leaf: n.Leaf, Size: n.Size}
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func queryInt(r *http.Request, key string, def int) (int, error) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, badRequest("bad %s=%q: %v", key, raw, err)
	}
	return v, nil
}

func queryInt64(r *http.Request, key string, def int64) (int64, error) {
	raw := r.URL.Query().Get(key)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, badRequest("bad %s=%q: %v", key, raw, err)
	}
	return v, nil
}

// recordWrite appends a mutation's history record on shard 0 and captures
// its commit on cc (awaited by the write wrapper after every mutex drops).
// The caller holds shard si's writer mutex; when the history shard is a
// different one, its mutex is taken here — capturing a commit on a shard
// requires its writer lock, or a concurrent history commit could capture
// another load's half-applied tables. Lock order is safe: shard 0's mutex
// is only ever acquired bare or after another shard's, never the other way.
func (s *Server) recordWrite(cc *commitCollector, si int, kind string, args any, summary string) error {
	if si != 0 {
		if !s.lockWriter(0) {
			s.logf("crimsond: not recording %s: %v", kind, shardFailedErr(0))
			return nil
		}
		defer s.writeMus[0].Unlock()
		defer func() {
			if p := recover(); p != nil {
				s.failShard(0, kind, p)
				panic(p) // write() fails shard si too
			}
		}()
	}
	if _, err := s.be.Queries.Record(kind, args, summary); err != nil {
		s.logf("crimsond: recording %s query: %v", kind, err)
	}
	cc.commitAsync(0)
	return nil
}

// recordAsync enqueues a read-path history record for the recorder
// goroutine. Read handlers must never touch the write path themselves — a
// bulk load in flight would stall them — so the append happens later,
// off the request's latency path. A full queue drops the record (counted
// in stats) rather than block a reader. The recorder goroutine spawns
// lazily on the first record, so a Server used as a bare http.Handler
// and never queried leaks nothing; once queries have flowed, Shutdown is
// what stops the recorder.
func (s *Server) recordAsync(kind string, args any, summary string) {
	if s.readOnly.Load() {
		return // a replica's history is replicated, not locally written
	}
	s.recMu.RLock()
	defer s.recMu.RUnlock()
	if s.recClosed {
		return
	}
	s.recStart.Do(func() {
		s.recWG.Add(1)
		go s.recordLoop()
	})
	select {
	case s.recCh <- histRecord{kind: kind, args: args, summary: summary}:
	default:
		s.stats.historyDropped.Add(1)
	}
}

// --- pagination cursors ----------------------------------------------------

// Cursors are opaque to clients: base64url over a versioned "<kind>:<pos>"
// payload, where pos is the resume position of the underlying scan — the
// last tree name for /v1/trees (the shard-merge resume point), the
// oldest-returned history id for /v1/history. The kind tag keeps a cursor
// from one endpoint from being replayed against another.
const (
	treeCursorKind    = "t1"
	historyCursorKind = "h1"
)

func encodeCursor(kind, pos string) string {
	return base64.RawURLEncoding.EncodeToString([]byte(kind + ":" + pos))
}

func decodeCursor(kind, cursor string) (string, error) {
	if cursor == "" {
		return "", nil
	}
	raw, err := base64.RawURLEncoding.DecodeString(cursor)
	if err != nil {
		return "", badRequest("bad cursor: %v", err)
	}
	pos, ok := strings.CutPrefix(string(raw), kind+":")
	if !ok {
		return "", badRequest("cursor does not belong to this endpoint")
	}
	return pos, nil
}

// --- tree handlers ---------------------------------------------------------

// handleTrees lists stored trees. With limit and/or cursor it pages: each
// page resumes the name-sorted shard merge from where the previous one
// stopped, reading only what the page needs from each shard. Without
// either parameter it returns the full listing, as before.
func (s *Server) handleTrees(r *http.Request, sn *reqSnap) (any, error) {
	limit, err := queryInt(r, "limit", 0)
	if err != nil {
		return nil, err
	}
	if limit < 0 {
		return nil, badRequest("bad limit %d: must be >= 0", limit)
	}
	after, err := decodeCursor(treeCursorKind, r.URL.Query().Get("cursor"))
	if err != nil {
		return nil, err
	}
	infos, next, err := sn.treeSnap().TreesPage(r.Context(), after, limit)
	if err != nil {
		return nil, err
	}
	resp := TreesResponse{Trees: make([]TreeInfo, len(infos))}
	for i, info := range infos {
		resp.Trees[i] = infoJSON(info)
	}
	if next != "" {
		resp.NextCursor = encodeCursor(treeCursorKind, next)
	}
	return resp, nil
}

func (s *Server) handleInfo(r *http.Request, sn *reqSnap) (any, error) {
	t, err := s.tree(sn, r.PathValue("name"))
	if err != nil {
		return nil, err
	}
	return infoJSON(t.Info()), nil
}

// handleLoad stores a tree posted as a Newick or NEXUS body. The body
// streams through the parser for NEXUS; Newick is read whole (the
// grammar needs the full string) but still bounded by MaxBodyBytes.
func (s *Server) handleLoad(r *http.Request, si int, cc *commitCollector) (any, error) {
	name := r.PathValue("name")
	f, err := queryInt(r, "f", core.DefaultFanout)
	if err != nil {
		return nil, err
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "newick"
	}
	progress := func(msg string) { s.logf("crimsond: load %s: %s", name, msg) }

	resp := LoadResponse{}
	var metrics treestore.LoadMetrics
	opts := treestore.LoadOptions{Workers: s.cfg.LoadWorkers, Metrics: &metrics}
	var parseNS int64
	switch format {
	case "newick":
		raw, err := io.ReadAll(r.Body)
		if err != nil {
			return nil, badRequest("reading body: %v", err)
		}
		parseStart := time.Now()
		t, err := newick.ParseWorkers(string(raw), s.cfg.LoadWorkers)
		if err != nil {
			return nil, err
		}
		parseNS = time.Since(parseStart).Nanoseconds()
		st, err := s.be.Trees.LoadOpts(name, t, f, opts, progress)
		if err != nil {
			return nil, err
		}
		resp.Tree = infoJSON(st.Info())
	case "nexus":
		parseStart := time.Now()
		doc, err := nexus.Parse(r.Body)
		if err != nil {
			return nil, badRequest("parsing NEXUS: %v", err)
		}
		parseNS = time.Since(parseStart).Nanoseconds()
		if len(doc.Trees) == 0 {
			return nil, badRequest("NEXUS document has no trees")
		}
		st, err := s.be.Trees.LoadOpts(name, doc.Trees[0].Tree, f, opts, progress)
		if err != nil {
			return nil, err
		}
		resp.Tree = infoJSON(st.Info())
		if ch := doc.Characters; ch != nil {
			for _, taxon := range ch.Order {
				if err := s.be.Species.Put(name, taxon, "seq:nexus", []byte(ch.Seqs[taxon])); err != nil {
					// Compensate: don't leave a half-loaded tree behind
					// (Load already committed the tree relations).
					if derr := s.be.Trees.Delete(name); derr != nil {
						s.logf("crimsond: rolling back partial load of %s: %v", name, derr)
					}
					if _, derr := s.be.Species.DeleteTree(name); derr != nil {
						s.logf("crimsond: rolling back sequences of %s: %v", name, derr)
					}
					return nil, err
				}
			}
			resp.Sequences = len(ch.Order)
		}
	default:
		return nil, badRequest("unknown format %q (want newick or nexus)", format)
	}
	// Commit the tree's shard (sequences from a NEXUS body land there too),
	// then publish the new incarnation's version to the caches.
	if err := s.commitShard(r.Context(), si); err != nil {
		return nil, err
	}
	s.stats.countLoad(parseNS, metrics)
	if sp := obs.SpanFrom(r.Context()); sp != nil {
		sp.AddTimed("parse", time.Duration(parseNS))
		sp.AddTimed("index", time.Duration(metrics.IndexNS))
		sp.AddTimed("stage", time.Duration(metrics.StageNS))
		sp.AddTimed("insert", time.Duration(metrics.InsertNS))
	}
	s.bumpTree(name, si)
	return resp, s.recordWrite(cc, si, "load",
		map[string]any{"tree": name, "f": f, "nodes": resp.Tree.Nodes},
		fmt.Sprintf("loaded %d nodes", resp.Tree.Nodes))
}

func (s *Server) handleDelete(r *http.Request, si int, cc *commitCollector) (any, error) {
	name := r.PathValue("name")
	if err := s.be.Trees.Delete(name); err != nil {
		return nil, err
	}
	// The delete is committed and published at this point: drop the
	// version, handle and cached results before anything fallible runs,
	// or a failed species cleanup would leave the cache serving a tree
	// whose relations are gone.
	s.dropTree(name)
	if _, err := s.be.Species.DeleteTree(name); err != nil {
		return nil, err
	}
	if err := s.commitShard(r.Context(), si); err != nil {
		return nil, err
	}
	return nil, s.recordWrite(cc, si, "delete", map[string]any{"tree": name}, "deleted")
}

// handleExport streams the stored tree as chunked Newick: one relation
// scan feeding the incremental emitter, so the server never materializes
// the tree or its serialization — peak memory is the emit chunk, and a
// client that disconnects stops the scan (and releases the snapshot)
// within one cancellation check.
func (s *Server) handleExport(r *http.Request, sn *reqSnap, w http.ResponseWriter) error {
	t, err := s.tree(sn, r.PathValue("name"))
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "text/x-newick; charset=utf-8")
	if err := t.ExportNewickTo(r.Context(), w); err != nil {
		return err
	}
	_, err = io.WriteString(w, "\n")
	return err
}

// --- query handlers --------------------------------------------------------

func (s *Server) handleProject(r *http.Request, sn *reqSnap) (any, error) {
	name := r.PathValue("name")
	names := splitList(r.URL.Query().Get("species"))
	if len(names) == 0 {
		return nil, badRequest("species parameter is required")
	}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	rs, _ := sn.forTree(name)
	ep := rs.Epoch()
	ver, cacheable := s.treeVer(name, ep)
	var key string
	if cacheable {
		key = cacheKey(name, ver, "project", sorted...)
		if v, ok := s.cache.get(key); ok {
			s.stats.cacheHits.Add(1)
			resp := v.(ProjectResponse)
			resp.Cached = true
			return resp, nil
		}
	}
	s.stats.cacheMisses.Add(1)
	t, err := s.tree(sn, name)
	if err != nil {
		return nil, err
	}
	projected, err := t.ProjectNamesCtx(r.Context(), names)
	if err != nil {
		return nil, err
	}
	resp := ProjectResponse{Newick: newick.String(projected), Leaves: projected.NumLeaves()}
	if cacheable {
		s.cachePut(name, ver, key, resp)
	}
	s.recordAsync("project", map[string]any{"tree": name, "species": names}, resp.Newick)
	return resp, nil
}

func (s *Server) handleLCA(r *http.Request, sn *reqSnap) (any, error) {
	name := r.PathValue("name")
	a, b := r.URL.Query().Get("a"), r.URL.Query().Get("b")
	if a == "" || b == "" {
		return nil, badRequest("a and b parameters are required")
	}
	ka, kb := a, b
	if ka > kb {
		ka, kb = kb, ka // LCA is symmetric; canonicalize the key
	}
	rs, _ := sn.forTree(name)
	ep := rs.Epoch()
	ver, cacheable := s.treeVer(name, ep)
	var key string
	if cacheable {
		key = cacheKey(name, ver, "lca", ka, kb)
		if v, ok := s.cache.get(key); ok {
			s.stats.cacheHits.Add(1)
			resp := v.(LCAResponse)
			resp.Cached = true
			return resp, nil
		}
	}
	s.stats.cacheMisses.Add(1)
	t, err := s.tree(sn, name)
	if err != nil {
		return nil, err
	}
	na, err := t.NodeByNameCtx(r.Context(), a)
	if err != nil {
		return nil, err
	}
	nb, err := t.NodeByNameCtx(r.Context(), b)
	if err != nil {
		return nil, err
	}
	id, err := t.LCACtx(r.Context(), na.ID, nb.ID)
	if err != nil {
		return nil, err
	}
	row, err := t.NodeCtx(r.Context(), id)
	if err != nil {
		return nil, err
	}
	resp := LCAResponse{Node: nodeJSON(row)}
	if cacheable {
		s.cachePut(name, ver, key, resp)
	}
	s.recordAsync("lca", map[string]any{"tree": name, "a": a, "b": b}, fmt.Sprintf("node %d", id))
	return resp, nil
}

func (s *Server) handleSample(r *http.Request, sn *reqSnap) (any, error) {
	name := r.PathValue("name")
	k, err := queryInt(r, "k", 10)
	if err != nil {
		return nil, err
	}
	seed, err := queryInt64(r, "seed", 1)
	if err != nil {
		return nil, err
	}
	t, err := s.tree(sn, name)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var rows []treestore.Node
	timeRaw := r.URL.Query().Get("time")
	timeArg := -1.0
	if timeRaw != "" {
		if timeArg, err = strconv.ParseFloat(timeRaw, 64); err != nil {
			return nil, badRequest("bad time=%q: %v", timeRaw, err)
		}
		rows, err = t.SampleWithTimeCtx(r.Context(), timeArg, k, rng)
	} else {
		rows, err = t.SampleUniformCtx(r.Context(), k, rng)
	}
	if err != nil {
		return nil, err
	}
	resp := SampleResponse{Species: make([]string, len(rows))}
	for i, n := range rows {
		resp.Species[i] = n.Name
	}
	sort.Strings(resp.Species)
	s.recordAsync("sample", map[string]any{"tree": name, "k": k, "time": timeArg, "seed": seed},
		strings.Join(resp.Species, " "))
	return resp, nil
}

func (s *Server) handleClade(r *http.Request, sn *reqSnap) (any, error) {
	name := r.PathValue("name")
	names := splitList(r.URL.Query().Get("species"))
	if len(names) == 0 {
		return nil, badRequest("species parameter is required")
	}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	rs, _ := sn.forTree(name)
	ep := rs.Epoch()
	ver, cacheable := s.treeVer(name, ep)
	var key string
	if cacheable {
		key = cacheKey(name, ver, "clade", sorted...)
		if v, ok := s.cache.get(key); ok {
			s.stats.cacheHits.Add(1)
			resp := v.(CladeResponse)
			resp.Cached = true
			return resp, nil
		}
	}
	s.stats.cacheMisses.Add(1)
	t, err := s.tree(sn, name)
	if err != nil {
		return nil, err
	}
	ids := make([]int, len(names))
	for i, sp := range names {
		row, err := t.NodeByNameCtx(r.Context(), sp)
		if err != nil {
			return nil, err
		}
		ids[i] = row.ID
	}
	clade, err := t.MinimalSpanningCladeCtx(r.Context(), ids)
	if err != nil {
		return nil, err
	}
	resp := CladeResponse{Root: nodeJSON(clade[0]), Nodes: len(clade)}
	for _, n := range clade {
		if n.Leaf {
			resp.Leaves++
			resp.Species = append(resp.Species, n.Name)
		}
	}
	sort.Strings(resp.Species)
	if cacheable {
		s.cachePut(name, ver, key, resp)
	}
	s.recordAsync("clade", map[string]any{"tree": name, "species": names},
		fmt.Sprintf("%d nodes", resp.Nodes))
	return resp, nil
}

func (s *Server) handleMatch(r *http.Request, sn *reqSnap) (any, error) {
	name := r.PathValue("name")
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, badRequest("reading pattern body: %v", err)
	}
	pattern, err := newick.Parse(string(raw))
	if err != nil {
		return nil, err
	}
	canonical := newick.String(pattern)
	rs, _ := sn.forTree(name)
	ep := rs.Epoch()
	ver, cacheable := s.treeVer(name, ep)
	var key string
	if cacheable {
		key = cacheKey(name, ver, "match", canonical)
		if v, ok := s.cache.get(key); ok {
			s.stats.cacheHits.Add(1)
			resp := v.(MatchResponse)
			resp.Cached = true
			return resp, nil
		}
	}
	s.stats.cacheMisses.Add(1)
	t, err := s.tree(sn, name)
	if err != nil {
		return nil, err
	}
	projected, err := t.ProjectNamesCtx(r.Context(), pattern.LeafNames())
	if err != nil {
		return nil, err
	}
	rf, err := treecmp.RobinsonFoulds(projected, pattern)
	if err != nil {
		return nil, err
	}
	norm, err := treecmp.NormalizedRF(projected, pattern)
	if err != nil {
		return nil, err
	}
	resp := MatchResponse{Exact: rf == 0, RF: rf, NormRF: norm, Projected: newick.String(projected)}
	if cacheable {
		s.cachePut(name, ver, key, resp)
	}
	s.recordAsync("match", map[string]any{"tree": name, "pattern": canonical},
		fmt.Sprintf("RF=%d", rf))
	return resp, nil
}

// handleBench runs the Benchmark Manager against a stored gold tree.
// It executes on the read path: the gold tree is exported once and the
// whole run is in-memory from there.
func (s *Server) handleBench(r *http.Request, sn *reqSnap) (any, error) {
	name := r.PathValue("name")
	var req BenchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		return nil, badRequest("decoding bench request: %v", err)
	}
	t, err := s.tree(sn, name)
	if err != nil {
		return nil, err
	}
	gold, err := t.ExportCtx(r.Context())
	if err != nil {
		return nil, err
	}
	cfg := benchmark.Config{
		Gold:        gold,
		SeqLength:   req.SeqLength,
		SampleSizes: req.Sizes,
		Replicates:  req.Replicates,
		Seed:        req.Seed,
		Parallel:    req.Parallel,
	}
	if len(cfg.SampleSizes) == 0 {
		cfg.SampleSizes = []int{10, 50, 100}
	}
	for _, a := range req.Algorithms {
		if a == "MP" || a == "mp" {
			cfg.SeqAlgorithms = append(cfg.SeqAlgorithms, recon.Parsimony{Seed: req.Seed})
			continue
		}
		alg, err := recon.ByName(a)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		cfg.Algorithms = append(cfg.Algorithms, alg)
	}
	if req.Time != nil {
		cfg.Method = benchmark.TimeConstrained
		cfg.Time = *req.Time
	}
	rep, err := benchmark.Run(cfg)
	if err != nil {
		return nil, err
	}
	s.recordAsync("bench", map[string]any{"tree": name, "sizes": cfg.SampleSizes,
		"reps": cfg.Replicates, "algs": req.Algorithms}, "benchmark complete")
	return rep.JSON(), nil
}

// --- species handlers ------------------------------------------------------

func (s *Server) handleSpeciesPut(r *http.Request, si int, cc *commitCollector) (any, error) {
	name, sp, kind := r.PathValue("name"), r.PathValue("sp"), r.PathValue("kind")
	data, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, badRequest("reading body: %v", err)
	}
	if err := s.be.Species.Put(name, sp, kind, data); err != nil {
		return nil, err
	}
	cc.commitAsync(si)
	return nil, nil
}

func (s *Server) handleSpeciesGet(r *http.Request, sn *reqSnap) (string, string, error) {
	rs, _ := sn.forTree(r.PathValue("name"))
	data, err := species.ViewOn(rs).Get(r.PathValue("name"), r.PathValue("sp"), r.PathValue("kind"))
	if err != nil {
		return "", "", err
	}
	return string(data), "application/octet-stream", nil
}

func (s *Server) handleSpeciesDelete(r *http.Request, si int, cc *commitCollector) (any, error) {
	ok, err := s.be.Species.Delete(r.PathValue("name"), r.PathValue("sp"), r.PathValue("kind"))
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s/%s", species.ErrNoData,
			r.PathValue("name"), r.PathValue("sp"), r.PathValue("kind"))
	}
	cc.commitAsync(si)
	return nil, nil
}

func (s *Server) handleSpeciesList(r *http.Request, sn *reqSnap) (any, error) {
	rs, _ := sn.forTree(r.PathValue("name"))
	recs, err := species.ViewOn(rs).List(r.PathValue("name"), r.PathValue("sp"))
	if err != nil {
		return nil, err
	}
	resp := SpeciesListResponse{Records: make([]SpeciesRecord, len(recs))}
	for i, rec := range recs {
		resp.Records[i] = SpeciesRecord{Tree: rec.Tree, Species: rec.Species, Kind: rec.Kind, Data: rec.Data}
	}
	return resp, nil
}

// --- history handlers ------------------------------------------------------

func entryJSON(e queryrepo.Entry) HistoryEntry {
	return HistoryEntry{ID: e.ID, Time: e.Time, Kind: e.Kind, Args: e.Args, Summary: e.Summary}
}

// handleHistory lists query-history entries newest first. limit bounds the
// page (default 50) and cursor resumes where the previous page stopped;
// ?kind= filtering is unpaginated (index scan, oldest first), as before.
func (s *Server) handleHistory(r *http.Request, sn *reqSnap) (any, error) {
	view := queryrepo.ViewOn(sn.shard(0)) // history lives on shard 0
	if kind := r.URL.Query().Get("kind"); kind != "" {
		entries, err := view.ByKindCtx(r.Context(), kind)
		if err != nil {
			return nil, err
		}
		return historyJSON(entries, 0), nil
	}
	limit, err := queryInt(r, "limit", 50)
	if err != nil {
		return nil, err
	}
	if limit < 0 {
		return nil, badRequest("bad limit %d: must be >= 0", limit)
	}
	pos, err := decodeCursor(historyCursorKind, r.URL.Query().Get("cursor"))
	if err != nil {
		return nil, err
	}
	before := int64(0)
	if pos != "" {
		if before, err = strconv.ParseInt(pos, 10, 64); err != nil {
			return nil, badRequest("bad cursor position %q", pos)
		}
	}
	entries, next, err := view.HistoryPage(r.Context(), before, limit)
	if err != nil {
		return nil, err
	}
	return historyJSON(entries, next), nil
}

func historyJSON(entries []queryrepo.Entry, next int64) HistoryResponse {
	resp := HistoryResponse{Entries: make([]HistoryEntry, len(entries))}
	for i, e := range entries {
		resp.Entries[i] = entryJSON(e)
	}
	if next > 0 {
		resp.NextCursor = encodeCursor(historyCursorKind, strconv.FormatInt(next, 10))
	}
	return resp
}

func (s *Server) handleHistoryGet(r *http.Request, sn *reqSnap) (any, error) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 64)
	if err != nil {
		return nil, badRequest("bad history id %q", r.PathValue("id"))
	}
	e, err := queryrepo.ViewOn(sn.shard(0)).Get(id)
	if err != nil {
		return nil, err
	}
	return entryJSON(e), nil
}
