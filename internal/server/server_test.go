// End-to-end tests for crimsond: a real server on an ephemeral port,
// driven through the typed client, with results checked against the
// in-process repository API.
package server_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	crimson "repro"
	"repro/client"
	"repro/internal/phylo"
	"repro/internal/shard"
	"repro/internal/treegen"
)

// testShards is the shard count the E2E suite runs at: 1 by default, or
// whatever CRIMSON_TEST_SHARDS says (CI runs the suite a second time at 4
// to prove the wire behavior is identical on a sharded repository).
func testShards(t *testing.T) int {
	t.Helper()
	raw := os.Getenv("CRIMSON_TEST_SHARDS")
	if raw == "" {
		return 1
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 1 {
		t.Fatalf("bad CRIMSON_TEST_SHARDS=%q", raw)
	}
	return n
}

// startServer opens an in-memory repository (sharded per
// CRIMSON_TEST_SHARDS), serves it on an ephemeral port, and returns the
// repository plus a client on the live wire path.
func startServer(t *testing.T, cfg crimson.ServerConfig) (*crimson.Repository, *client.Client) {
	return startServerShards(t, cfg, testShards(t))
}

// replicaMode reports whether the suite is running against a
// primary+follower pair (CRIMSON_TEST_REPLICA=1). Reads eligible for
// replica routing are then served by the follower, so assertions about
// the primary's read-side internals (result cache hits, read-op
// histograms, async history records, abort counters) don't apply.
func replicaMode() bool { return os.Getenv("CRIMSON_TEST_REPLICA") == "1" }

func startServerShards(t *testing.T, cfg crimson.ServerConfig, shards int) (*crimson.Repository, *client.Client) {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	// CRIMSON_TEST_TRACE=1 reruns the whole suite with span collection on
	// every request plus a slow-query threshold (CI does this under
	// -race), proving the traced path changes no wire behavior.
	if os.Getenv("CRIMSON_TEST_TRACE") == "1" {
		cfg.Trace = true
		if cfg.SlowQueryMS == 0 {
			cfg.SlowQueryMS = 1
		}
	}
	// CRIMSON_TEST_REPLICA=1 reruns the whole suite against a file-backed
	// primary with a streaming follower attached: the client's data reads
	// round-robin to the follower (with an epoch barrier, see repl_test.go)
	// and must be indistinguishable from single-server reads.
	if os.Getenv("CRIMSON_TEST_REPLICA") == "1" {
		return startReplicaPair(t, cfg, shards)
	}
	repo := crimson.OpenMemSharded(shards)
	srv := repo.NewServer(cfg)
	if err := srv.Start(); err != nil {
		t.Fatalf("starting server: %v", err)
	}
	t.Cleanup(func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		repo.Close()
	})
	return repo, client.New("http://"+srv.Addr(), nil)
}

func yule(t *testing.T, leaves int, seed int64) *phylo.Tree {
	t.Helper()
	tree, err := treegen.Yule(leaves, 1.0, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("generating tree: %v", err)
	}
	return tree
}

// TestEndToEnd loads a >=1k-leaf tree over HTTP and checks every query
// endpoint against the in-process API.
func TestEndToEnd(t *testing.T) {
	ctx := context.Background()
	repo, cl := startServer(t, crimson.ServerConfig{})
	gold := yule(t, 1200, 7)

	info, err := cl.LoadTreeCtx(ctx, "gold", 0, gold)
	if err != nil {
		t.Fatalf("loading over HTTP: %v", err)
	}
	if info.Leaves != 1200 || info.Nodes != gold.NumNodes() {
		t.Fatalf("load info = %+v, want %d nodes / 1200 leaves", info, gold.NumNodes())
	}

	// The in-process view of the same repository.
	st, err := repo.Tree("gold")
	if err != nil {
		t.Fatalf("opening stored tree in-process: %v", err)
	}

	// Sampling is seeded, so the wire path must reproduce the in-process
	// draw exactly.
	wire, err := cl.SampleUniformCtx(ctx, "gold", 40, 99)
	if err != nil {
		t.Fatalf("sample over HTTP: %v", err)
	}
	rows, err := st.SampleUniformCtx(ctx, 40, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatalf("sample in-process: %v", err)
	}
	local := make([]string, len(rows))
	for i, n := range rows {
		local[i] = n.Name
	}
	sort.Strings(local) // the server returns names sorted; in-process sorts by id
	if strings.Join(wire, " ") != strings.Join(local, " ") {
		t.Fatalf("seeded sample differs:\nwire  = %v\nlocal = %v", wire, local)
	}

	// Projection over the sampled species: identical trees both ways.
	projWire, err := cl.ProjectTreeCtx(ctx, "gold", wire)
	if err != nil {
		t.Fatalf("project over HTTP: %v", err)
	}
	projLocal, err := st.ProjectNamesCtx(ctx, wire)
	if err != nil {
		t.Fatalf("project in-process: %v", err)
	}
	if !phylo.Equal(projWire, projLocal, 1e-9) {
		t.Fatalf("projection differs between wire and in-process")
	}

	// LCA for several pairs.
	for i := 0; i+1 < 10; i += 2 {
		a, b := wire[i], wire[i+1]
		resp, err := cl.LCACtx(ctx, "gold", a, b)
		if err != nil {
			t.Fatalf("LCA(%s,%s) over HTTP: %v", a, b, err)
		}
		na, err := st.NodeByNameCtx(ctx, a)
		if err != nil {
			t.Fatal(err)
		}
		nb, err := st.NodeByNameCtx(ctx, b)
		if err != nil {
			t.Fatal(err)
		}
		want, err := st.LCACtx(ctx, na.ID, nb.ID)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Node.ID != want {
			t.Fatalf("LCA(%s,%s) = %d over HTTP, %d in-process", a, b, resp.Node.ID, want)
		}
	}

	// Pattern match: a projection of the stored tree must match exactly.
	pattern, err := st.ProjectNamesCtx(ctx, wire[:8])
	if err != nil {
		t.Fatal(err)
	}
	match, err := cl.MatchCtx(ctx, "gold", pattern)
	if err != nil {
		t.Fatalf("match over HTTP: %v", err)
	}
	if !match.Exact || match.RF != 0 {
		t.Fatalf("projection pattern should match exactly, got %+v", match)
	}

	// Clade root equals the LCA of the species set.
	clade, err := cl.CladeCtx(ctx, "gold", wire[:4])
	if err != nil {
		t.Fatalf("clade over HTTP: %v", err)
	}
	if clade.Nodes <= 0 || clade.Leaves < 4 {
		t.Fatalf("clade = %+v", clade)
	}

	// Export round-trips the full tree.
	exported, err := cl.ExportCtx(ctx, "gold")
	if err != nil {
		t.Fatalf("export over HTTP: %v", err)
	}
	if exported.NumLeaves() != 1200 {
		t.Fatalf("exported %d leaves, want 1200", exported.NumLeaves())
	}

	// Tree listing and info agree with the catalog.
	trees, err := cl.TreesCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 1 || trees[0].Name != "gold" {
		t.Fatalf("trees = %+v", trees)
	}

	// The query history saw the wire queries. Read-path records drain
	// through the async recorder, so poll until they land. In replica mode
	// the eligible reads ran on the follower, which records no history;
	// only the primary-served requests (the load, and match's POST) appear.
	wantKinds := []string{"load", "sample", "project", "lca", "match", "clade"}
	if replicaMode() {
		wantKinds = []string{"load", "match"}
	}
	var kinds map[string]int
	deadline := time.Now().Add(5 * time.Second)
	for {
		hist, err := cl.HistoryCtx(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		kinds = make(map[string]int)
		for _, e := range hist {
			kinds[e.Kind]++
		}
		missing := false
		for _, k := range wantKinds {
			if kinds[k] == 0 {
				missing = true
			}
		}
		if !missing {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("history still missing kinds after recorder drain (got %v)", kinds)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCacheHitsVisibleInStats re-issues identical projections and LCAs
// and expects the stats endpoint to count cache hits.
func TestCacheHitsVisibleInStats(t *testing.T) {
	ctx := context.Background()
	if replicaMode() {
		t.Skip("followers serve these reads with the result cache deliberately off")
	}
	_, cl := startServer(t, crimson.ServerConfig{})
	gold := yule(t, 300, 3)
	if _, err := cl.LoadTreeCtx(ctx, "gold", 0, gold); err != nil {
		t.Fatal(err)
	}
	species, err := cl.SampleUniformCtx(ctx, "gold", 12, 5)
	if err != nil {
		t.Fatal(err)
	}

	first, err := cl.ProjectCtx(ctx, "gold", species)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatalf("first projection claims to be cached")
	}
	for i := 0; i < 3; i++ {
		again, err := cl.ProjectCtx(ctx, "gold", species)
		if err != nil {
			t.Fatal(err)
		}
		if !again.Cached {
			t.Fatalf("repeat projection %d not served from cache", i)
		}
		if again.Newick != first.Newick {
			t.Fatalf("cached projection differs from original")
		}
	}
	clade1, err := cl.CladeCtx(ctx, "gold", species[:4])
	if err != nil {
		t.Fatal(err)
	}
	if clade1.Cached {
		t.Fatalf("first clade claims to be cached")
	}
	clade2, err := cl.CladeCtx(ctx, "gold", species[:4])
	if err != nil {
		t.Fatal(err)
	}
	if !clade2.Cached {
		t.Fatalf("repeat clade not served from cache")
	}
	if _, err := cl.LCACtx(ctx, "gold", species[0], species[1]); err != nil {
		t.Fatal(err)
	}
	// Reversed arguments must hit the same cache entry (LCA is symmetric).
	rev, err := cl.LCACtx(ctx, "gold", species[1], species[0])
	if err != nil {
		t.Fatal(err)
	}
	if !rev.Cached {
		t.Fatalf("symmetric LCA not served from cache")
	}

	stats, err := cl.StatsCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits < 4 {
		t.Fatalf("stats report %d cache hits, want >= 4 (%+v)", stats.CacheHits, stats)
	}
	if stats.CacheEntries == 0 || stats.OpenTrees != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.PerOp["project"] < 4 || stats.PerOp["lca"] < 2 {
		t.Fatalf("per-op counters = %v", stats.PerOp)
	}
}

// TestConcurrentClients drives the server from many goroutines at once
// (run under -race in CI) while a writer loads and deletes other trees.
func TestConcurrentClients(t *testing.T) {
	ctx := context.Background()
	repo, cl := startServer(t, crimson.ServerConfig{MaxInFlightReads: 8})
	gold := yule(t, 400, 11)
	if _, err := cl.LoadTreeCtx(ctx, "gold", 0, gold); err != nil {
		t.Fatal(err)
	}
	st, err := repo.Tree("gold")
	if err != nil {
		t.Fatal(err)
	}
	names, err := cl.SampleUniformCtx(ctx, "gold", 24, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantLCA := make(map[string]int)
	for i := 0; i+1 < len(names); i += 2 {
		na, err := st.NodeByNameCtx(ctx, names[i])
		if err != nil {
			t.Fatal(err)
		}
		nb, err := st.NodeByNameCtx(ctx, names[i+1])
		if err != nil {
			t.Fatal(err)
		}
		id, err := st.LCACtx(ctx, na.ID, nb.ID)
		if err != nil {
			t.Fatal(err)
		}
		wantLCA[names[i]+"|"+names[i+1]] = id
	}

	const readers = 8
	var wg sync.WaitGroup
	errc := make(chan error, readers+1)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 12; iter++ {
				i := (g + iter) % (len(names) - 1)
				if i%2 == 1 {
					i--
				}
				resp, err := cl.LCACtx(ctx, "gold", names[i], names[i+1])
				if err != nil {
					errc <- fmt.Errorf("reader %d: lca: %w", g, err)
					return
				}
				if want := wantLCA[names[i]+"|"+names[i+1]]; resp.Node.ID != want {
					errc <- fmt.Errorf("reader %d: LCA = %d, want %d", g, resp.Node.ID, want)
					return
				}
				end := i + 6
				if end > len(names) {
					end = len(names)
				}
				if _, err := cl.ProjectCtx(ctx, "gold", names[i:end]); err != nil {
					errc <- fmt.Errorf("reader %d: project: %w", g, err)
					return
				}
				if _, err := cl.SampleUniformCtx(ctx, "gold", 5, int64(g*100+iter)); err != nil {
					errc <- fmt.Errorf("reader %d: sample: %w", g, err)
					return
				}
			}
		}(g)
	}
	// One writer loads and deletes scratch trees while the readers run.
	// (Scratch trees are generated up front: test helpers must not be
	// called from non-test goroutines.)
	scratch := make([]*phylo.Tree, 4)
	for i := range scratch {
		scratch[i] = yule(t, 60, int64(20+i))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for iter := 0; iter < len(scratch); iter++ {
			name := fmt.Sprintf("scratch%d", iter)
			if _, err := cl.LoadTreeCtx(ctx, name, 0, scratch[iter]); err != nil {
				errc <- fmt.Errorf("writer: load %s: %w", name, err)
				return
			}
			if err := cl.DeleteCtx(ctx, name); err != nil {
				errc <- fmt.Errorf("writer: delete %s: %w", name, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	stats, err := cl.StatsCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.InFlightReads != 0 {
		t.Fatalf("in-flight reads = %d after drain", stats.InFlightReads)
	}
	if stats.Errors != 0 {
		t.Fatalf("server counted %d errors", stats.Errors)
	}
}

// TestServerBenchAndSpeciesAndErrors covers the remaining endpoints:
// server-side benchmark runs, species data, NEXUS loads and error
// statuses.
func TestServerBenchAndSpeciesAndErrors(t *testing.T) {
	ctx := context.Background()
	_, cl := startServer(t, crimson.ServerConfig{})
	gold := yule(t, 64, 13)
	if _, err := cl.LoadTreeCtx(ctx, "gold", 0, gold); err != nil {
		t.Fatal(err)
	}

	rep, err := cl.BenchCtx(ctx, "gold", client.BenchRequest{
		Sizes:      []int{8},
		Replicates: 2,
		Algorithms: []string{"NJ", "UPGMA"},
		SeqLength:  120,
		Seed:       1,
	})
	if err != nil {
		t.Fatalf("bench over HTTP: %v", err)
	}
	if len(rep.Results) != 4 { // 1 size x 2 replicates x 2 algorithms
		t.Fatalf("bench results = %d, want 4", len(rep.Results))
	}
	if len(rep.Summary) != 2 || rep.Config.GoldLeaves != 64 {
		t.Fatalf("bench report = %+v", rep)
	}

	// A parsimony-only request must not pick up the NJ/UPGMA defaults.
	mpOnly, err := cl.BenchCtx(ctx, "gold", client.BenchRequest{
		Sizes: []int{6}, Replicates: 1, Algorithms: []string{"MP"}, SeqLength: 60, Seed: 2,
	})
	if err != nil {
		t.Fatalf("MP-only bench: %v", err)
	}
	if len(mpOnly.Results) != 1 || mpOnly.Results[0].Algorithm != "MP" {
		t.Fatalf("MP-only bench ran %+v, want exactly one MP result", mpOnly.Results)
	}

	// Species data round trip.
	if err := cl.PutSpeciesDataCtx(ctx, "gold", "s1", "seq:test", []byte("ACGT")); err != nil {
		t.Fatal(err)
	}
	data, err := cl.SpeciesDataCtx(ctx, "gold", "s1", "seq:test")
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "ACGT" {
		t.Fatalf("species data = %q", data)
	}
	recs, err := cl.ListSpeciesDataCtx(ctx, "gold", "s1")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Kind != "seq:test" {
		t.Fatalf("records = %+v", recs)
	}
	if err := cl.DeleteSpeciesDataCtx(ctx, "gold", "s1", "seq:test"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.SpeciesDataCtx(ctx, "gold", "s1", "seq:test"); !isStatus(err, 404) {
		t.Fatalf("deleted species data: err = %v, want 404", err)
	}

	// Error statuses.
	if _, err := cl.InfoCtx(ctx, "nosuch"); !isStatus(err, 404) {
		t.Fatalf("missing tree: err = %v, want 404", err)
	}
	if _, err := cl.LoadTreeCtx(ctx, "gold", 0, gold); !isStatus(err, 409) {
		t.Fatalf("duplicate load: err = %v, want 409", err)
	}
	if _, err := cl.LoadNewickCtx(ctx, "bad name", 0, strings.NewReader("(a,b);")); !isStatus(err, 400) {
		t.Fatalf("bad name: err = %v, want 400", err)
	}
	if _, err := cl.LoadNewickCtx(ctx, "badbody", 0, strings.NewReader("((((")); !isStatus(err, 400) {
		t.Fatalf("bad newick: err = %v, want 400", err)
	}
	if _, err := cl.ProjectCtx(ctx, "gold", nil); !isStatus(err, 400) {
		t.Fatalf("empty projection: err = %v, want 400", err)
	}

	// Deleting a tree drops it from the catalog and the caches.
	if err := cl.DeleteCtx(ctx, "gold"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.InfoCtx(ctx, "gold"); !isStatus(err, 404) {
		t.Fatalf("deleted tree still visible: %v", err)
	}
	stats, err := cl.StatsCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.OpenTrees != 0 {
		t.Fatalf("open trees = %d after delete", stats.OpenTrees)
	}
}

func isStatus(err error, status int) bool {
	var apiErr *client.APIError
	return errors.As(err, &apiErr) && apiErr.Status == status
}

// TestShardedServer drives an explicitly 4-sharded server: concurrent
// loads of trees on distinct shards over the wire, per-shard MVCC gauges
// in /v1/stats, version-keyed cache hits, and delete+reload cache
// correctness across a shard.
func TestShardedServer(t *testing.T) {
	ctx := context.Background()
	const shards = 4
	_, cl := startServerShards(t, crimson.ServerConfig{}, shards)

	// One tree name per shard (deterministic scan over the router).
	router, err := shard.NewRouter(shards)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, shards)
	for i, found := 0, 0; found < shards; i++ {
		name := fmt.Sprintf("wtree%d", i)
		if si := router.Place(name); names[si] == "" {
			names[si] = name
			found++
		}
	}
	trees := make([]*phylo.Tree, shards)
	for i := range trees {
		trees[i] = yule(t, 150+10*i, int64(60+i))
	}

	// Concurrent loads onto distinct shards: each takes a different shard's
	// writer mutex, so they genuinely run in parallel.
	var wg sync.WaitGroup
	errc := make(chan error, shards)
	for i := range names {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := cl.LoadTreeCtx(ctx, names[i], 0, trees[i]); err != nil {
				errc <- fmt.Errorf("load %s: %w", names[i], err)
			}
		}(i)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	listed, err := cl.TreesCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != shards {
		t.Fatalf("listing has %d trees, want %d", len(listed), shards)
	}

	// Per-shard gauges: every shard committed at least once, and the
	// aggregate epoch is their sum.
	stats, err := cl.StatsCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Shards) != shards {
		t.Fatalf("stats report %d shards, want %d", len(stats.Shards), shards)
	}
	var sum uint64
	for i, sh := range stats.Shards {
		if sh.Epoch == 0 {
			t.Fatalf("shard %d never committed (epoch 0) after loading a tree on it", i)
		}
		sum += sh.Epoch
	}
	if stats.Epoch != sum {
		t.Fatalf("aggregate epoch %d != shard sum %d", stats.Epoch, sum)
	}

	// Version-keyed cache: repeats hit, and a delete+reload of the same
	// name moves the version so the old entries can never be served.
	name := names[1]
	sample, err := cl.SampleUniformCtx(ctx, name, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	first, err := cl.ProjectCtx(ctx, name, sample)
	if err != nil {
		t.Fatal(err)
	}
	again, err := cl.ProjectCtx(ctx, name, sample)
	if err != nil {
		t.Fatal(err)
	}
	if again.Newick != first.Newick {
		t.Fatalf("repeat projection differs: %+v", again)
	}
	// Cache attribution only holds when the primary serves the repeat; a
	// follower answers with its result cache off.
	if !replicaMode() && !again.Cached {
		t.Fatalf("repeat projection not served from cache: %+v", again)
	}
	if err := cl.DeleteCtx(ctx, name); err != nil {
		t.Fatal(err)
	}
	replacement := yule(t, 90, 77)
	if _, err := cl.LoadTreeCtx(ctx, name, 0, replacement); err != nil {
		t.Fatal(err)
	}
	fresh, err := cl.ProjectCtx(ctx, name, replacement.LeafNames()[:4])
	if err != nil {
		t.Fatalf("projection after reload: %v", err)
	}
	if fresh.Cached {
		t.Fatal("projection on the reloaded tree claims to be cached")
	}
	if _, err := cl.ProjectCtx(ctx, name, sample); !isStatus(err, 404) {
		t.Fatalf("old species set against the reloaded tree: err = %v, want 404 (stale cache must not answer)", err)
	}
}
