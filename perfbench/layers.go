package main

import (
	"bufio"
	"context"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	crimson "repro"
	"repro/client"
	"repro/internal/newick"
	"repro/internal/phylo"
	"repro/internal/treecmp"
)

// serverScrape is one server's counters at one instant: /v1/stats (which
// embeds the engine counters and the replication status), the per-op
// latency histogram sums and counts from /metrics, and the newest query
// history id.
type serverScrape struct {
	stats     client.Stats
	opSum     map[string]float64 // seconds
	opCount   map[string]float64
	historyID int64
}

type scrapes struct {
	primary  serverScrape
	follower *serverScrape
}

func scrapeAll(ctx context.Context, d *deployment) (scrapes, error) {
	var s scrapes
	var err error
	if s.primary, err = scrapeOne(ctx, d.client(d.primary), true); err != nil {
		return s, err
	}
	if d.follower != nil {
		f, err := scrapeOne(ctx, d.client(d.follower), false)
		if err != nil {
			return s, err
		}
		s.follower = &f
	}
	return s, nil
}

func scrapeOne(ctx context.Context, c *client.Client, history bool) (serverScrape, error) {
	s := serverScrape{opSum: map[string]float64{}, opCount: map[string]float64{}}
	var err error
	if s.stats, err = c.StatsCtx(ctx); err != nil {
		return s, err
	}
	text, err := c.MetricsCtx(ctx)
	if err != nil {
		return s, err
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		for suffix, into := range map[string]map[string]float64{"_sum": s.opSum, "_count": s.opCount} {
			rest, ok := strings.CutPrefix(line, "crimsond_op_duration_seconds"+suffix+`{op="`)
			if !ok {
				continue
			}
			op, val, ok := strings.Cut(rest, `"} `)
			if v, err := strconv.ParseFloat(val, 64); ok && err == nil {
				into[op] = v
			}
		}
	}
	if history {
		entries, err := c.HistoryCtx(ctx, 1)
		if err != nil {
			return s, err
		}
		if len(entries) > 0 {
			s.historyID = entries[0].ID
		}
	}
	return s, nil
}

// serverOps are the ops whose server-side mean time is reported.
var serverOps = []string{"project", "lca", "clade", "match", "sample", "load", "species_put", "species_get", "delete", "commit"}

// writePathOps are the server ops of the write path: tree loads, deletes
// and species puts, and the species gets that read the puts back.
var writePathOps = []string{"load", "species_put", "species_get", "delete"}

// readOps are the server ops that serve reads.
var readOps = []string{"project", "lca", "clade", "match", "sample", "species_get"}

// serverLayers turns the scrapes around the timed phase (s1 → s2; loads
// from s0, before set-up) into the server, queryrepo, relstore, storage
// and repl metrics. A metric of a path the workload does not drive — the
// write path when the timed phase stores no user data, replication
// without a follower — is left out and named in out.unmeasured rather
// than reported as 0.
func serverLayers(out *outcome, s0, s1, s2 scrapes, g *gaugePoller) map[string]float64 {
	L := make(map[string]float64)
	measured := func(name string, ok bool, v float64) {
		if ok {
			L[name] = v
		} else {
			out.unmeasured = append(out.unmeasured, name)
		}
	}
	pairs := [][2]serverScrape{{s1.primary, s2.primary}}
	if s1.follower != nil && s2.follower != nil {
		pairs = append(pairs, [2]serverScrape{*s1.follower, *s2.follower})
	}
	// engine sums an engine counter's delta over every server; primary
	// and follower pick one.
	engine := func(name string) float64 {
		var v float64
		for _, p := range pairs {
			v += float64(p[1].stats.Engine[name] - p[0].stats.Engine[name])
		}
		return v
	}
	primary := func(name string) float64 {
		return float64(s2.primary.stats.Engine[name] - s1.primary.stats.Engine[name])
	}
	follower := func(name string) float64 {
		if len(pairs) < 2 {
			return 0
		}
		return float64(pairs[1][1].stats.Engine[name] - pairs[1][0].stats.Engine[name])
	}
	stat := func(f func(client.Stats) int64) float64 {
		var v float64
		for _, p := range pairs {
			v += float64(f(p[1].stats) - f(p[0].stats))
		}
		return v
	}
	opTime := func(ops ...string) (sum, count float64) {
		for _, p := range pairs {
			for _, op := range ops {
				sum += p[1].opSum[op] - p[0].opSum[op]
				count += p[1].opCount[op] - p[0].opCount[op]
			}
		}
		return sum, count
	}

	var reads, clientReadNS, respBytes, respN, userBytes float64
	for _, r := range out.results {
		if r.err != nil {
			continue
		}
		if r.read {
			reads++
			clientReadNS += float64(r.dur)
		}
		if r.sink != nil && !r.traced {
			respBytes += float64(r.sink.respBytes)
			respN++
		}
		userBytes += float64(r.written)
	}
	writes := userBytes > 0

	for _, op := range serverOps {
		sum, n := opTime(op)
		measured("server.op_us."+op, writes || !slices.Contains(writePathOps, op), ratio(sum*1e6, n))
	}
	sum, n := opTime(readOps...)
	L["server.http_overhead_us"] = ratio(clientReadNS/1e3, reads) - ratio(sum*1e6, n)
	L["server.response_bytes_per_op"] = ratio(respBytes, respN)
	hits := stat(func(s client.Stats) int64 { return s.CacheHits })
	L["server.result_cache_hit_ratio"] = ratio(hits, hits+stat(func(s client.Stats) int64 { return s.CacheMisses }))
	L["server.errors"] = stat(func(s client.Stats) int64 { return s.Errors })
	L["server.aborted_reads"] = stat(func(s client.Stats) int64 { return s.AbortedReads })

	L["queryrepo.records_per_read_op"] = ratio(float64(s2.primary.historyID-s1.primary.historyID), reads)
	L["queryrepo.history_dropped"] = stat(func(s client.Stats) int64 { return s.HistoryDropped })

	loads := float64(s2.primary.stats.Loads - s0.primary.stats.Loads)
	for stage, f := range map[string]func(client.Stats) int64{
		"parse":  func(s client.Stats) int64 { return s.LoadParseNS },
		"index":  func(s client.Stats) int64 { return s.LoadIndexNS },
		"stage":  func(s client.Stats) int64 { return s.LoadStageNS },
		"insert": func(s client.Stats) int64 { return s.LoadInsertNS },
	} {
		L["treestore.load_stage_ms."+stage] = ratio(float64(f(s2.primary.stats)-f(s0.primary.stats))/1e6, loads)
	}

	L["relstore.rows_scanned_per_op"] = ratio(engine("rows_scanned"), reads)
	L["storage.descents_per_op"] = ratio(engine("btree_descents"), reads)
	L["storage.cells_decoded_per_op"] = ratio(engine("cells_decoded"), reads)
	L["storage.pages_read_per_op"] = ratio(engine("pages_read"), reads)
	rc := engine("read_cache_hits")
	L["storage.read_cache_hit_ratio"] = ratio(rc, rc+engine("read_cache_misses"))
	L["storage.read_cache_evicts"] = engine("read_cache_evicts")
	ph := engine("pool_hits")
	L["storage.pool_hit_ratio"] = ratio(ph, ph+engine("pool_misses"))
	commits := primary("commits")
	L["storage.fsyncs_per_commit"] = ratio(primary("wal_syncs"), commits)
	L["storage.commits_per_batch"] = ratio(commits, primary("group_commit_batches"))
	L["storage.cow_pages_per_commit"] = ratio(primary("cow_pages"), commits)
	measured("storage.wal_bytes_per_user_byte", writes, ratio(primary("wal_bytes"), userBytes))
	L["storage.checkpoint_runs"] = primary("checkpoint_runs")
	measured("storage.checkpoint_bytes_per_user_byte", writes, ratio(primary("checkpoint_bytes"), userBytes))
	L["storage.checkpoint_backlog_max_bytes"] = float64(g.backlogMax)
	L["storage.reclaim_pending_max_pages"] = float64(g.reclaimMax)

	repl := len(pairs) == 2
	measured("repl.bytes_shipped_per_wal_byte", repl, ratio(primary("repl_bytes_shipped"), primary("wal_bytes")))
	measured("repl.batches_applied_per_shipped", repl, ratio(follower("repl_batches_applied"), primary("repl_batches_shipped")))
	measured("repl.lag_epochs_max", repl, float64(g.lagEpochsMax))
	measured("repl.apply_conflicts", repl, follower("repl_apply_conflicts"))
	measured("repl.snapshots_invalidated", repl, follower("repl_snapshots_invalidated"))
	measured("repl.reconnects", repl, follower("repl_reconnects"))

	selfUS, count := map[string]float64{}, map[string]float64{}
	for _, r := range out.results {
		if r.sink != nil && r.sink.summary != nil {
			spanSelfTimes(r.sink.summary, selfUS, count)
		}
	}
	for _, name := range spanNames {
		L["treestore.span_us."+name] = ratio(selfUS[name], count[name])
	}
	return L
}

// spanNames are the treestore stages crimsond's span trees report.
var spanNames = []string{"resolve_names", "fetch_nodes", "lca_walk", "frontier", "collect_leaves"}

// spanSelfTimes adds each span's self time — its duration less its
// children's — to selfUS under its name.
func spanSelfTimes(s *client.SpanSummary, selfUS, count map[string]float64) {
	self := float64(s.DurationUS)
	for _, ch := range s.Children {
		self -= float64(ch.DurationUS)
		spanSelfTimes(ch, selfUS, count)
	}
	selfUS[s.Name] += self
	count[s.Name]++
}

// replayOp is one treestore call sequence of the in-process replay.
type replayOp struct {
	kind        string // sample, project, match, lca, clade
	names       []string
	k           int
	seed        int64
	time        float64 // sample: < 0 is uniform
	project     bool    // sample: project the draw and match a perturbation of it
	perturbSeed int64
	pattern     *phylo.Tree // match
}

type replaySet struct {
	tree   string   // the stored tree the ops run against
	inputs []string // Newick texts whose parse is timed
	ops    []replayOp
}

// replayBudget bounds the in-process replay's length. A time-constrained
// sample runs once, outside the budget: one costs seconds.
const replayBudget = 3 * time.Second

// serveReadCacheMB is `crimson serve`'s default decoded-node read cache,
// which the replay gives its copy of the repository too.
const serveReadCacheMB = 64

// replayCalls are the treestore calls the replay measures.
var replayCalls = []string{"project", "lca", "clade", "sample", "sample_time", "node_by_name"}

// callStats accumulates one treestore call's cost over the replay.
type callStats struct {
	n, ns, allocs, bytes, descents, cells float64
}

// replayLayers opens a copy of the stopped primary's repository in
// process, replays the workload's op sequence against the public
// treestore, newick and treecmp functions, and times each call together
// with its engine-counter and allocation deltas.
func replayLayers(ctx context.Context, d *deployment, fx fixture, L map[string]float64) error {
	for _, call := range replayCalls {
		for _, m := range []string{"call_us", "allocs_per_call", "bytes_per_call", "descents_per_call", "cells_per_call"} {
			L["treestore."+m+"."+call] = 0
		}
	}
	L["newick.string_us_per_response"], L["newick.parse_ms_per_mb"], L["treecmp.rf_us_per_match"] = 0, 0, 0

	rs := fx.replay(200)
	var parseMS, mb float64
	for _, text := range rs.inputs {
		start := time.Now()
		if _, err := newick.Parse(text); err != nil {
			return err
		}
		parseMS += float64(time.Since(start)) / 1e6
		mb += float64(len(text)) / 1e6
	}
	L["newick.parse_ms_per_mb"] = ratio(parseMS, mb)

	dst := filepath.Join(d.dir, "replay.db")
	if err := d.copyRepo(dst); err != nil {
		return err
	}
	repo, err := crimson.Open(dst)
	if err != nil {
		return err
	}
	defer repo.Close()
	repo.SetReadCacheMB(serveReadCacheMB)
	t, err := repo.Tree(rs.tree)
	if err != nil {
		return err
	}

	stats := make(map[string]*callStats)
	measure := func(kind string, fn func() error) error {
		c0 := crimson.EngineCounters()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		err := fn()
		ns := float64(time.Since(start))
		runtime.ReadMemStats(&m1)
		c1 := crimson.EngineCounters()
		s := stats[kind]
		if s == nil {
			s = &callStats{}
			stats[kind] = s
		}
		s.n++
		s.ns += ns
		s.allocs += float64(m1.Mallocs - m0.Mallocs)
		s.bytes += float64(m1.TotalAlloc - m0.TotalAlloc)
		s.descents += float64(c1["btree_descents"] - c0["btree_descents"])
		s.cells += float64(c1["cells_decoded"] - c0["cells_decoded"])
		return err
	}
	var stringNS, nString, rfNS, nRF float64
	project := func(names []string) (*phylo.Tree, error) {
		var p *phylo.Tree
		err := measure("project", func() error {
			var err error
			p, err = t.ProjectNamesCtx(ctx, names)
			return err
		})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		_ = newick.String(p)
		stringNS += float64(time.Since(start))
		nString++
		return p, nil
	}
	match := func(pattern *phylo.Tree) error {
		p, err := project(pattern.LeafNames())
		if err != nil {
			return err
		}
		start := time.Now()
		_, err = treecmp.RobinsonFoulds(p, pattern)
		rfNS += float64(time.Since(start))
		nRF++
		return err
	}
	ids := func(names []string) ([]int, error) {
		out := make([]int, len(names))
		for i, name := range names {
			err := measure("node_by_name", func() error {
				n, err := t.NodeByNameCtx(ctx, name)
				out[i] = n.ID
				return err
			})
			if err != nil {
				return nil, err
			}
		}
		return out, nil
	}

	deadline := time.Now().Add(replayBudget)
	for _, op := range rs.ops {
		timed := op.kind == "sample" && op.time >= 0
		if timed && stats["sample_time"] != nil {
			continue
		}
		if !timed && time.Now().After(deadline) {
			break
		}
		start := time.Now()
		var err error
		switch op.kind {
		case "sample":
			var rows []crimson.StoredNode
			kind := "sample"
			if op.time >= 0 {
				kind = "sample_time"
			}
			err = measure(kind, func() error {
				r := rand.New(rand.NewSource(op.seed))
				var err error
				if op.time >= 0 {
					rows, err = t.SampleWithTimeCtx(ctx, op.time, op.k, r)
				} else {
					rows, err = t.SampleUniformCtx(ctx, op.k, r)
				}
				return err
			})
			if err == nil && op.project {
				names := make([]string, len(rows))
				for i, n := range rows {
					names[i] = n.Name
				}
				var p *phylo.Tree
				if p, err = project(names); err == nil {
					err = match(perturb(p, rand.New(rand.NewSource(op.perturbSeed)), evalSwaps))
				}
			}
		case "project":
			_, err = project(op.names)
		case "match":
			err = match(op.pattern)
		case "lca":
			var id []int
			if id, err = ids(op.names); err == nil {
				err = measure("lca", func() error {
					_, err := t.LCACtx(ctx, id[0], id[1])
					return err
				})
			}
		case "clade":
			var id []int
			if id, err = ids(op.names); err == nil {
				err = measure("clade", func() error {
					_, err := t.MinimalSpanningCladeCtx(ctx, id)
					return err
				})
			}
		}
		if err != nil {
			return err
		}
		if timed {
			deadline = deadline.Add(time.Since(start))
		}
	}
	for kind, s := range stats {
		L["treestore.call_us."+kind] = s.ns / 1e3 / s.n
		L["treestore.allocs_per_call."+kind] = s.allocs / s.n
		L["treestore.bytes_per_call."+kind] = s.bytes / s.n
		L["treestore.descents_per_call."+kind] = s.descents / s.n
		L["treestore.cells_per_call."+kind] = s.cells / s.n
	}
	L["newick.string_us_per_response"] = ratio(stringNS/1e3, nString)
	L["treecmp.rf_us_per_match"] = ratio(rfNS/1e3, nRF)
	return nil
}
