package server

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/treestore"
)

// opNames is the preregistered, fixed operation set. Request counts and
// latency histograms are arrays indexed by position here, so the hot
// path is lock-free atomic adds with no map. Requests whose op is not in
// the set (none today; the slot guards against future drift) land in the
// trailing "other" bucket.
var opNames = []string{
	"stats", "trees", "load", "info", "delete",
	"project", "lca", "sample", "clade", "match",
	"bench", "export",
	"species_put", "species_get", "species_delete", "species_list",
	"history", "history_get",
	"repl_status", "repl_stream", "repl_promote",
	"other",
}

const numOps = 22 // len(opNames); a constant so the stat arrays can size on it

// opIndexOf maps op name -> array slot. Built once and read-only
// afterwards, so lock-free lookups are safe.
var opIndexOf = func() map[string]int {
	if len(opNames) != numOps {
		panic("numOps out of sync with opNames")
	}
	m := make(map[string]int, len(opNames))
	for i, n := range opNames {
		m[n] = i
	}
	return m
}()

func opIndex(op string) int {
	if i, ok := opIndexOf[op]; ok {
		return i
	}
	return numOps - 1 // "other"
}

// serverStats holds the counters behind /v1/stats and /metrics. All hot
// paths are atomic; nothing takes a lock.
type serverStats struct {
	start          time.Time
	requests       atomic.Int64
	errors         atomic.Int64
	inFlightReads  atomic.Int64
	abortedReads   atomic.Int64
	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
	historyDropped atomic.Int64

	// Ingest pipeline: completed loads and cumulative per-stage wall time.
	loads        atomic.Int64
	loadParseNS  atomic.Int64
	loadIndexNS  atomic.Int64
	loadStageNS  atomic.Int64
	loadInsertNS atomic.Int64

	// perOp counts requests per operation; opHist records each op's
	// end-to-end latency. Both are indexed by opIndex.
	perOp  [numOps]atomic.Int64
	opHist [numOps]obs.Histogram
	// commitHist records storage-engine commit latency across all commit
	// sites (loads, writes, the history recorder, shutdown).
	commitHist obs.Histogram
}

// countLoad records one completed tree load's per-stage timings.
func (st *serverStats) countLoad(parseNS int64, m treestore.LoadMetrics) {
	st.loads.Add(1)
	st.loadParseNS.Add(parseNS)
	st.loadIndexNS.Add(m.IndexNS)
	st.loadStageNS.Add(m.StageNS)
	st.loadInsertNS.Add(m.InsertNS)
}

func newServerStats() *serverStats {
	return &serverStats{start: time.Now()}
}

func (st *serverStats) countRequest(op string) {
	st.requests.Add(1)
	st.perOp[opIndex(op)].Add(1)
}

// observeOp records one completed request's end-to-end latency.
func (st *serverStats) observeOp(op string, d time.Duration) {
	st.opHist[opIndex(op)].Observe(d)
}

// observeCommit records one storage-engine commit's latency.
func (st *serverStats) observeCommit(d time.Duration) {
	st.commitHist.Observe(d)
}

// opHistEntry pairs an op name with a consistent snapshot of its latency
// histogram, for /metrics rendering and /v1/stats percentiles.
type opHistEntry struct {
	op string
	h  obs.HistSnapshot
}

// histSnapshots returns one entry per op with at least one observation,
// plus "commit" for engine commits, sorted by op name.
func (st *serverStats) histSnapshots() []opHistEntry {
	var out []opHistEntry
	for i := range st.opHist {
		h := st.opHist[i].Snapshot()
		if h.Count > 0 {
			out = append(out, opHistEntry{op: opNames[i], h: h})
		}
	}
	if h := st.commitHist.Snapshot(); h.Count > 0 {
		out = append(out, opHistEntry{op: "commit", h: h})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].op < out[j].op })
	return out
}

// snapshot captures every counter; cacheEntries and openTrees are
// supplied by the server since they live outside this struct.
func (st *serverStats) snapshot(cacheEntries, openTrees int) StatsSnapshot {
	perOp := make(map[string]int64)
	for i := range st.perOp {
		if n := st.perOp[i].Load(); n > 0 {
			perOp[opNames[i]] = n
		}
	}
	lat := make(map[string]OpLatency)
	for _, e := range st.histSnapshots() {
		lat[e.op] = OpLatency{
			Count: e.h.Count,
			P50MS: e.h.Quantile(0.50) * 1000,
			P95MS: e.h.Quantile(0.95) * 1000,
			P99MS: e.h.Quantile(0.99) * 1000,
		}
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return StatsSnapshot{
		UptimeSeconds:  time.Since(st.start).Seconds(),
		Requests:       st.requests.Load(),
		Errors:         st.errors.Load(),
		InFlightReads:  st.inFlightReads.Load(),
		AbortedReads:   st.abortedReads.Load(),
		CacheHits:      st.cacheHits.Load(),
		CacheMisses:    st.cacheMisses.Load(),
		CacheEntries:   cacheEntries,
		OpenTrees:      openTrees,
		PerOp:          perOp,
		OpLatencies:    lat,
		Engine:         obs.Engine.Snapshot(),
		Goroutines:     runtime.NumGoroutine(),
		HeapAllocBytes: mem.HeapAlloc,
		HistoryDropped: st.historyDropped.Load(),
		Loads:          st.loads.Load(),
		LoadParseNS:    st.loadParseNS.Load(),
		LoadIndexNS:    st.loadIndexNS.Load(),
		LoadStageNS:    st.loadStageNS.Load(),
		LoadInsertNS:   st.loadInsertNS.Load(),
	}
}

// metricsText renders the Prometheus exposition-format /metrics page.
// Every series family carries # HELP and # TYPE metadata, counter names
// end in _total, and label values use plain double quotes, so a strict
// parser accepts the page.
func metricsText(s StatsSnapshot, hists []opHistEntry) string {
	var sb strings.Builder
	writeStandardFamilies(&sb, s)
	writeReplFamilies(&sb, s)
	writeEngineFamilies(&sb, s.Engine)
	writeHistogramFamilies(&sb, hists)
	writeGroupCommitFamily(&sb)
	writeRuntimeFamilies(&sb, s)
	return sb.String()
}

// fnum renders a float the way Prometheus expects (shortest round-trip
// representation, scientific notation allowed).
func fnum(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func writeStandardFamilies(b *strings.Builder, s StatsSnapshot) {
	family := func(name, help, typ string) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	gauge := func(name, help string, v int64) {
		family(name, help, "gauge")
		fmt.Fprintf(b, "%s %d\n", name, v)
	}
	counter := func(name, help string, v int64) {
		family(name, help, "counter")
		fmt.Fprintf(b, "%s %d\n", name, v)
	}

	family("crimsond_uptime_seconds", "Seconds since the server started.", "gauge")
	fmt.Fprintf(b, "crimsond_uptime_seconds %s\n", fnum(s.UptimeSeconds))
	counter("crimsond_requests_total", "HTTP API requests received.", s.Requests)
	counter("crimsond_errors_total", "Requests that returned an error response.", s.Errors)
	gauge("crimsond_inflight_reads", "Read requests currently executing.", s.InFlightReads)
	counter("crimsond_aborted_reads_total", "Read requests aborted by client disconnect or deadline.", s.AbortedReads)
	counter("crimsond_cache_hits_total", "Result-cache hits.", s.CacheHits)
	counter("crimsond_cache_misses_total", "Result-cache misses.", s.CacheMisses)
	gauge("crimsond_cache_entries", "Entries currently in the result cache.", int64(s.CacheEntries))
	gauge("crimsond_open_trees", "Trees open in the repository catalog.", int64(s.OpenTrees))
	gauge("crimsond_epoch", "Sum of committed MVCC epochs across shards.", int64(s.Epoch))
	gauge("crimsond_open_snapshots", "Open MVCC snapshots across shards.", int64(s.OpenSnapshots))
	gauge("crimsond_reclaim_pending_pages", "Pages awaiting MVCC reclamation across shards.", int64(s.PendingReclaimPages))
	gauge("crimsond_shards", "Number of repository shards.", int64(len(s.Shards)))

	family("crimsond_shard_epoch", "Committed MVCC epoch of one shard.", "gauge")
	for _, sh := range s.Shards {
		fmt.Fprintf(b, "crimsond_shard_epoch{shard=\"%d\"} %d\n", sh.Shard, sh.Epoch)
	}
	family("crimsond_shard_open_snapshots", "Open MVCC snapshots of one shard.", "gauge")
	for _, sh := range s.Shards {
		fmt.Fprintf(b, "crimsond_shard_open_snapshots{shard=\"%d\"} %d\n", sh.Shard, sh.OpenSnapshots)
	}
	family("crimsond_shard_reclaim_pending_pages", "Pages awaiting MVCC reclamation on one shard.", "gauge")
	for _, sh := range s.Shards {
		fmt.Fprintf(b, "crimsond_shard_reclaim_pending_pages{shard=\"%d\"} %d\n", sh.Shard, sh.PendingReclaimPages)
	}

	gauge("crimsond_checkpoint_backlog_bytes", "Committed page bytes awaiting checkpoint writeback across shards.", s.CheckpointBacklogBytes)
	gauge("crimsond_wal_bytes", "Current write-ahead log size across shards.", s.WALBytes)
	family("crimsond_shard_checkpoint_backlog_bytes", "Committed page bytes awaiting checkpoint writeback on one shard.", "gauge")
	for _, sh := range s.Shards {
		fmt.Fprintf(b, "crimsond_shard_checkpoint_backlog_bytes{shard=\"%d\"} %d\n", sh.Shard, sh.CheckpointBacklogBytes)
	}
	family("crimsond_shard_wal_bytes", "Current write-ahead log size of one shard.", "gauge")
	for _, sh := range s.Shards {
		fmt.Fprintf(b, "crimsond_shard_wal_bytes{shard=\"%d\"} %d\n", sh.Shard, sh.WALBytes)
	}

	counter("crimsond_history_dropped_total", "Query-history records dropped because the recorder queue was full.", s.HistoryDropped)
	gauge("crimsond_load_workers", "Configured ingest fan-out.", int64(s.LoadWorkers))
	counter("crimsond_loads_total", "Completed tree loads.", s.Loads)
	counter("crimsond_load_parse_ns_total", "Wall time parsing input across loads, in nanoseconds.", s.LoadParseNS)
	counter("crimsond_load_index_ns_total", "Wall time indexing trees across loads, in nanoseconds.", s.LoadIndexNS)
	counter("crimsond_load_stage_ns_total", "Wall time staging rows across loads, in nanoseconds.", s.LoadStageNS)
	counter("crimsond_load_insert_ns_total", "Wall time inserting rows across loads, in nanoseconds.", s.LoadInsertNS)

	family("crimsond_op_requests_total", "Requests received, by operation.", "counter")
	ops := make([]string, 0, len(s.PerOp))
	for op := range s.PerOp {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		fmt.Fprintf(b, "crimsond_op_requests_total{op=\"%s\"} %d\n", op, s.PerOp[op])
	}
}

// writeReplFamilies renders the replication gauges: role, and per shard
// the published/applied epoch, subscriber count and — on a follower —
// the primary's epoch, the apply lag in epochs and stream liveness. All
// families are emitted on every server (a primary simply reports zero
// lag and no follower flags), so the strict-parse metrics gate sees the
// series from startup.
func writeReplFamilies(b *strings.Builder, s StatsSnapshot) {
	family := func(name, help string) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	}
	rs := s.Repl
	if rs == nil {
		rs = &repl.StatusResponse{Role: "primary"}
	}
	boolv := func(v bool) int {
		if v {
			return 1
		}
		return 0
	}
	family("crimsond_repl_primary", "1 when this server is a writable primary, 0 while it is a follower.")
	fmt.Fprintf(b, "crimsond_repl_primary %d\n", boolv(rs.Role == "primary"))
	family("crimsond_repl_epoch", "Published epoch of one shard (committed on a primary, applied on a follower).")
	for _, sh := range rs.Shards {
		fmt.Fprintf(b, "crimsond_repl_epoch{shard=\"%d\"} %d\n", sh.Shard, sh.Epoch)
	}
	family("crimsond_repl_subscribers", "Connected replication subscribers of one shard.")
	for _, sh := range rs.Shards {
		fmt.Fprintf(b, "crimsond_repl_subscribers{shard=\"%d\"} %d\n", sh.Shard, sh.Subscribers)
	}
	family("crimsond_repl_primary_epoch", "Last epoch the primary reported for one shard (follower only; 0 on a primary).")
	for _, sh := range rs.Shards {
		fmt.Fprintf(b, "crimsond_repl_primary_epoch{shard=\"%d\"} %d\n", sh.Shard, sh.PrimaryEpoch)
	}
	family("crimsond_repl_lag_epochs", "Apply lag of one shard in epochs behind the primary (0 on a primary).")
	for _, sh := range rs.Shards {
		fmt.Fprintf(b, "crimsond_repl_lag_epochs{shard=\"%d\"} %d\n", sh.Shard, sh.LagEpochs)
	}
	family("crimsond_repl_connected", "1 while one shard's replication stream is connected (0 on a primary).")
	for _, sh := range rs.Shards {
		fmt.Fprintf(b, "crimsond_repl_connected{shard=\"%d\"} %d\n", sh.Shard, boolv(sh.Connected))
	}
	family("crimsond_repl_synced", "1 once one shard's follower has caught up to the primary (0 on a primary).")
	for _, sh := range rs.Shards {
		fmt.Fprintf(b, "crimsond_repl_synced{shard=\"%d\"} %d\n", sh.Shard, boolv(sh.Synced))
	}
	family("crimsond_repl_last_contact_ms", "Milliseconds since one shard's stream last heard from the primary.")
	for _, sh := range rs.Shards {
		fmt.Fprintf(b, "crimsond_repl_last_contact_ms{shard=\"%d\"} %d\n", sh.Shard, sh.LastContactMS)
	}
}

// engineHelp documents each obs engine counter for /metrics HELP lines.
var engineHelp = map[string]string{
	"btree_descents":             "B+tree root-to-leaf descents.",
	"cells_decoded":              "B+tree cells decoded while reading nodes.",
	"rows_scanned":               "Rows produced by range scans.",
	"pool_hits":                  "Buffer-pool page read hits.",
	"pool_misses":                "Buffer-pool page read misses.",
	"pages_read":                 "Pages read from disk.",
	"pages_written":              "Pages written at commit.",
	"cow_pages":                  "Pages copied by copy-on-write before modification.",
	"wal_bytes":                  "Bytes appended to the write-ahead log.",
	"wal_syncs":                  "Write-ahead log fsyncs.",
	"read_cache_hits":            "Decoded-node read cache hits.",
	"read_cache_misses":          "Decoded-node read cache misses (leaf and interior nodes decoded).",
	"read_cache_evicts":          "Decoded-node read cache evictions under the byte budget.",
	"commits":                    "Storage-engine commits made durable.",
	"group_commit_batches":       "WAL batches flushed by group commit (each is one fsync).",
	"group_fsyncs_saved":         "Fsyncs avoided by coalescing commits into group-commit batches.",
	"checkpoint_runs":            "Background checkpoint passes completed.",
	"checkpoint_pages":           "Pages written back to the page file by checkpoints.",
	"checkpoint_bytes":           "Bytes written back to the page file by checkpoints.",
	"wal_highwater_bytes":        "Largest write-ahead log size observed (high-water mark).",
	"repl_batches_shipped":       "WAL commit batches shipped to replication subscribers.",
	"repl_bytes_shipped":         "Bytes shipped on replication streams (page payloads).",
	"repl_snapshot_pages":        "Pages shipped in full-snapshot replica catch-ups.",
	"repl_batches_applied":       "Replicated batches applied by this follower.",
	"repl_pages_applied":         "Pages applied from replicated batches and snapshots.",
	"repl_apply_conflicts":       "Replica applies that waited out the snapshot grace period and invalidated the still-open snapshots.",
	"repl_reconnects":            "Replication stream reconnect attempts.",
	"repl_snapshots_invalidated": "Replica applies that invalidated still-open local snapshots (their reads fail with a retryable error).",
	"wal_retain_drops":           "WAL truncations that overrode a replication retain floor because the log outgrew the retain cap.",
}

// writeEngineFamilies emits one counter family per process-global engine
// counter. It takes the already-captured snapshot so /metrics and
// /v1/stats agree within a scrape; counters absent from the snapshot
// (zero) are still emitted as 0 so the series exist from startup.
func writeEngineFamilies(b *strings.Builder, engine map[string]int64) {
	for _, name := range obs.CounterNames() {
		metric := "crimsond_engine_" + name + "_total"
		help := engineHelp[name]
		if help == "" {
			help = "Storage-engine counter " + name + "."
		}
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s counter\n", metric, help, metric)
		fmt.Fprintf(b, "%s %d\n", metric, engine[name])
	}
}

func writeHistogramFamilies(b *strings.Builder, hists []opHistEntry) {
	fmt.Fprintf(b, "# HELP crimsond_op_duration_seconds End-to-end request latency by operation (op=\"commit\" is engine commit latency).\n")
	fmt.Fprintf(b, "# TYPE crimsond_op_duration_seconds histogram\n")
	for _, e := range hists {
		for i := 0; i < obs.HistBuckets; i++ {
			bound := float64(obs.BucketBoundUS(i)) / 1e6
			fmt.Fprintf(b, "crimsond_op_duration_seconds_bucket{op=\"%s\",le=\"%s\"} %d\n",
				e.op, fnum(bound), e.h.Counts[i])
		}
		fmt.Fprintf(b, "crimsond_op_duration_seconds_bucket{op=\"%s\",le=\"+Inf\"} %d\n", e.op, e.h.Counts[obs.HistBuckets])
		fmt.Fprintf(b, "crimsond_op_duration_seconds_sum{op=\"%s\"} %s\n", e.op, fnum(float64(e.h.SumNS)/1e9))
		fmt.Fprintf(b, "crimsond_op_duration_seconds_count{op=\"%s\"} %d\n", e.op, e.h.Count)
	}
}

// writeGroupCommitFamily renders the group-commit batch-size distribution:
// one observation per flushed WAL batch, valued at the number of commits
// the batch carried. The histogram reuses obs.Histogram's log2 buckets, so
// le bounds are powers of two of commits-per-batch (not seconds).
func writeGroupCommitFamily(b *strings.Builder) {
	gb := obs.GroupBatch.Snapshot()
	fmt.Fprintf(b, "# HELP crimsond_group_commit_batch_size Commits coalesced per flushed WAL batch.\n")
	fmt.Fprintf(b, "# TYPE crimsond_group_commit_batch_size histogram\n")
	for i := 0; i < obs.HistBuckets; i++ {
		fmt.Fprintf(b, "crimsond_group_commit_batch_size_bucket{le=\"%d\"} %d\n",
			obs.BucketBoundUS(i), gb.Counts[i])
	}
	fmt.Fprintf(b, "crimsond_group_commit_batch_size_bucket{le=\"+Inf\"} %d\n", gb.Counts[obs.HistBuckets])
	fmt.Fprintf(b, "crimsond_group_commit_batch_size_sum %d\n", gb.SumNS/1000)
	fmt.Fprintf(b, "crimsond_group_commit_batch_size_count %d\n", gb.Count)
}

func writeRuntimeFamilies(b *strings.Builder, s StatsSnapshot) {
	fmt.Fprintf(b, "# HELP crimsond_goroutines Goroutines currently running.\n# TYPE crimsond_goroutines gauge\n")
	fmt.Fprintf(b, "crimsond_goroutines %d\n", s.Goroutines)
	fmt.Fprintf(b, "# HELP crimsond_heap_alloc_bytes Bytes of allocated heap objects.\n# TYPE crimsond_heap_alloc_bytes gauge\n")
	fmt.Fprintf(b, "crimsond_heap_alloc_bytes %d\n", s.HeapAllocBytes)
	fmt.Fprintf(b, "# HELP crimsond_gomaxprocs GOMAXPROCS setting.\n# TYPE crimsond_gomaxprocs gauge\n")
	fmt.Fprintf(b, "crimsond_gomaxprocs %d\n", runtime.GOMAXPROCS(0))
}
