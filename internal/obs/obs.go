// Package obs is Crimson's zero-dependency observability substrate:
// engine counters, request spans and latency histograms shared by every
// tier from the HTTP handlers down to page I/O.
//
// Three pieces, designed to cost nearly nothing when tracing is off:
//
//   - Counters: a fixed, indexed set of atomic engine counters (B+tree
//     descents, cells decoded, rows scanned, buffer-pool hits/misses,
//     pages read/written, COW page allocations, WAL bytes/syncs). The
//     process-global Engine instance is always incremented by the storage
//     hooks — that is the entire "disabled" cost — while a second,
//     per-request Counters travels in the context only when a span is
//     active. All Counters methods are nil-safe, so hook sites never
//     branch on whether tracing is on.
//
//   - Span: a node of a per-request trace tree carried via
//     context.Context. StartSpan on a context without a span returns a
//     nil span (the fast path); every Span method tolerates a nil
//     receiver. Spans are concurrency-safe: parallel stages of one
//     request may start children and bump counters from many goroutines.
//
//   - Histogram: a fixed log-bucketed, lock-free latency histogram
//     (powers of two in microseconds) with Prometheus-style cumulative
//     buckets and quantile estimation for p50/p95/p99 reporting.
package obs

import "sync/atomic"

// Counter indexes one engine counter within a Counters set.
type Counter int

// The engine counters, ordered hot-to-cold. NumCounters must stay last.
const (
	// CtrBTreeDescents counts root-to-leaf B+tree descents (point reads
	// and cursor positioning).
	CtrBTreeDescents Counter = iota
	// CtrCellsDecoded counts leaf/internal cells decoded from node pages.
	CtrCellsDecoded
	// CtrRowsScanned counts rows visited by relational scans.
	CtrRowsScanned
	// CtrPoolHits counts buffer-pool frame hits.
	CtrPoolHits
	// CtrPoolMisses counts buffer-pool misses (each one is a page read).
	CtrPoolMisses
	// CtrPagesRead counts pages read from the pager (pool misses).
	CtrPagesRead
	// CtrPagesWritten counts pages written to the pager at commit.
	CtrPagesWritten
	// CtrCOWPages counts pages allocated by copy-on-write supersession.
	CtrCOWPages
	// CtrWALBytes counts bytes appended to the write-ahead log.
	CtrWALBytes
	// CtrWALSyncs counts WAL fsync batches.
	CtrWALSyncs
	// CtrReadCacheHits counts decoded-node cache hits on the read path.
	CtrReadCacheHits
	// CtrReadCacheMisses counts decoded-node cache misses (leaf and
	// interior nodes that had to be decoded from the page).
	CtrReadCacheMisses
	// CtrReadCacheEvicts counts decoded-node cache evictions under the
	// byte budget.
	CtrReadCacheEvicts
	// CtrCommits counts durable commits (each waiter that returned from a
	// successful Commit/CommitAsync wait).
	CtrCommits
	// CtrGroupBatches counts group-commit flushes (one WAL append + fsync
	// covering one or more commits).
	CtrGroupBatches
	// CtrGroupFsyncsSaved counts fsyncs avoided by group commit: for each
	// flushed batch of n commits, n-1 syncs were saved versus the serial
	// one-fsync-per-commit path.
	CtrGroupFsyncsSaved
	// CtrCheckpointRuns counts background/synchronous checkpoint passes
	// that wrote at least one page back to the page file.
	CtrCheckpointRuns
	// CtrCheckpointPages counts pages written back by checkpoints.
	CtrCheckpointPages
	// CtrCheckpointBytes counts bytes written back by checkpoints.
	CtrCheckpointBytes
	// CtrWALHighwaterBytes tracks (via Max) the largest WAL size observed
	// between truncations.
	CtrWALHighwaterBytes
	// CtrReplBatchesShipped counts commit batches shipped to replication
	// subscribers (one per batch per subscriber).
	CtrReplBatchesShipped
	// CtrReplBytesShipped counts page-image bytes shipped to subscribers.
	CtrReplBytesShipped
	// CtrReplSnapshotPages counts pages streamed in snapshot catch-ups.
	CtrReplSnapshotPages
	// CtrReplBatchesApplied counts replicated batches applied by a follower.
	CtrReplBatchesApplied
	// CtrReplPagesApplied counts page images applied by a follower.
	CtrReplPagesApplied
	// CtrReplApplyConflicts counts batches applied after the reclaim-horizon
	// grace period expired with local snapshots still open (those snapshots
	// are invalidated before the apply proceeds).
	CtrReplApplyConflicts
	// CtrReplReconnects counts follower stream reconnect attempts.
	CtrReplReconnects
	// CtrReplSnapshotsInvalidated counts replica applies that invalidated
	// still-open local snapshots (their in-flight reads fail with a
	// retryable error instead of observing rewritten pages).
	CtrReplSnapshotsInvalidated
	// CtrWALRetainDrops counts WAL truncations that proceeded past a
	// replication retain floor because the log outgrew the retain cap —
	// the lagging subscriber falls back to a full snapshot catch-up.
	CtrWALRetainDrops

	NumCounters
)

// counterNames are the wire/metric names, indexed by Counter.
var counterNames = [NumCounters]string{
	"btree_descents",
	"cells_decoded",
	"rows_scanned",
	"pool_hits",
	"pool_misses",
	"pages_read",
	"pages_written",
	"cow_pages",
	"wal_bytes",
	"wal_syncs",
	"read_cache_hits",
	"read_cache_misses",
	"read_cache_evicts",
	"commits",
	"group_commit_batches",
	"group_fsyncs_saved",
	"checkpoint_runs",
	"checkpoint_pages",
	"checkpoint_bytes",
	"wal_highwater_bytes",
	"repl_batches_shipped",
	"repl_bytes_shipped",
	"repl_snapshot_pages",
	"repl_batches_applied",
	"repl_pages_applied",
	"repl_apply_conflicts",
	"repl_reconnects",
	"repl_snapshots_invalidated",
	"wal_retain_drops",
}

// Name returns the counter's snake_case wire name.
func (c Counter) Name() string { return counterNames[c] }

// CounterNames lists every counter name in index order.
func CounterNames() []string { return counterNames[:] }

// Counters is a fixed set of atomic engine counters. The zero value is
// ready to use, and every method is nil-safe so instrumentation hooks can
// pass a possibly-nil per-request set without branching.
type Counters struct {
	v [NumCounters]atomic.Int64
}

// Engine is the process-global counter set: the storage hooks always
// increment it, so /metrics exposes engine totals even with tracing off.
// It aggregates across every open store in the process.
var Engine = &Counters{}

// GroupBatch is the process-global group-commit batch-size histogram.
// It reuses the log2 latency histogram with "microseconds" standing in
// for "commits per flushed batch": a flush of n commits is recorded as
// Observe(n µs), so bucket i counts batches of ≤ 2^i commits.
var GroupBatch = &Histogram{}

// Add increments counter c by n. A nil receiver is a no-op.
func (cs *Counters) Add(c Counter, n int64) {
	if cs == nil {
		return
	}
	cs.v[c].Add(n)
}

// Get returns the current value of counter c (0 on a nil receiver).
func (cs *Counters) Get(c Counter) int64 {
	if cs == nil {
		return 0
	}
	return cs.v[c].Load()
}

// Max raises counter c to n if n is larger (a monotonic high-water
// mark). A nil receiver is a no-op.
func (cs *Counters) Max(c Counter, n int64) {
	if cs == nil {
		return
	}
	for {
		cur := cs.v[c].Load()
		if n <= cur || cs.v[c].CompareAndSwap(cur, n) {
			return
		}
	}
}

// AddAll adds every counter of other into cs. Nil receivers and nil
// arguments are no-ops.
func (cs *Counters) AddAll(other *Counters) {
	if cs == nil || other == nil {
		return
	}
	for i := Counter(0); i < NumCounters; i++ {
		if n := other.v[i].Load(); n != 0 {
			cs.v[i].Add(n)
		}
	}
}

// Snapshot returns the nonzero counters by name. Nil receivers return an
// empty map.
func (cs *Counters) Snapshot() map[string]int64 {
	out := make(map[string]int64)
	if cs == nil {
		return out
	}
	for i := Counter(0); i < NumCounters; i++ {
		if n := cs.v[i].Load(); n != 0 {
			out[counterNames[i]] = n
		}
	}
	return out
}
