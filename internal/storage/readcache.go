package storage

import (
	"sync"

	"repro/internal/obs"
)

// This file implements the version-keyed decoded-page cache behind the hot
// read path. The cache holds *decoded* B+tree nodes — leaves and interior
// nodes alike — keyed by (PageID, epoch): because copy-on-write commits
// never modify a published page in place, a (page, epoch) pair names
// immutable bytes for as long as the page exists, so entries need no
// invalidation while cached. They are only dropped when something makes
// the page id reusable or rewrites its bytes:
//
//   - Store.free: the page returns to the free list (epoch reclamation,
//     explicit frees, reclamation sweeps) and its id may be reallocated
//     with different contents.
//   - Store.WritePage and Store.WriteCOW: the writer rewrites a page it
//     owns in place, or lands a copy-on-write image on a reused id.
//   - Store.ApplyReplicated: a follower installs the primary's images.
//
// Each of those drops the page after its new bytes are in the pool, and
// every drop bumps its shard's generation. A reader that missed records
// the generation before reading the page, and put refuses the decode if a
// drop has happened on that shard since: a decode of bytes that changed
// under the reader is never published.
//
// A decoded node is one heap copy of the page's used bytes; keys and
// values are capacity-clipped windows onto it (see decodeNode). Cached
// nodes are shared by every goroutine reading that (page, epoch), and the
// values BTree reads return alias them, so those values are read-only.
// Store.CheckReadCache verifies that nobody broke the rule: every cached
// node must still re-encode to its page's bytes.
//
// The cache is sharded to keep it lock-light: each shard is an
// independently locked LRU with its own slice of the byte budget, and a
// page's entries always land on the shard picked by hashing the page id,
// so drop(id) touches exactly one shard and only that page's entries.

// readCacheShards is the number of independently locked cache shards.
const readCacheShards = 16

// rcEntry is one cached decoded node on a shard's intrusive LRU list.
type rcEntry struct {
	page       PageID
	epoch      uint64
	n          *node
	cost       int64
	prev, next *rcEntry // LRU list; nil-terminated at both ends
}

// rcShard is one lock domain of the cache. Entries are indexed per page so
// dropping a page touches exactly its own entries, never the whole shard.
type rcShard struct {
	mu    sync.Mutex
	pages map[PageID]map[uint64]*rcEntry
	head  *rcEntry // most recently used
	tail  *rcEntry // least recently used
	used  int64
	limit int64
	gen   uint64 // bumped by every drop; see put
}

// readCache is a bounded, sharded cache of decoded B+tree nodes. All
// methods are safe for concurrent use.
type readCache struct {
	shards [readCacheShards]rcShard
}

// newReadCache builds a cache with the given total byte budget, split
// evenly across the shards. Budgets too small to hold a node simply cache
// nothing (put refuses oversized entries), so any non-negative size is
// valid.
func newReadCache(totalBytes int64) *readCache {
	c := &readCache{}
	per := totalBytes / readCacheShards
	for i := range c.shards {
		c.shards[i].pages = make(map[PageID]map[uint64]*rcEntry)
		c.shards[i].limit = per
	}
	return c
}

// shardFor hashes the page id onto a shard. All epochs of one page map to
// the same shard so drop(id) is a single-shard operation.
func (c *readCache) shardFor(id PageID) *rcShard {
	h := uint64(id) * 0x9e3779b97f4a7c15 // Fibonacci hashing
	return &c.shards[h>>(64-4)]          // top 4 bits: 16 shards
}

// nodeCost approximates the resident footprint of a decoded node: the
// node struct, its page image (the encoded bytes the keys and values
// slice), one slice header per key and value, and the child ids and
// overflow flags.
func nodeCost(n *node) int64 {
	return 96 + int64(n.encodedSize()) +
		24*int64(len(n.keys)+len(n.vals)) +
		8*int64(len(n.children)) + int64(len(n.overflow))
}

// get returns the cached node for (id, epoch) and marks it most recently
// used. The returned node is shared: callers must treat it as immutable.
// On a miss it returns the shard's drop generation, which the caller
// hands back to put with the node it decodes.
func (c *readCache) get(id PageID, epoch uint64) (*node, uint64, bool) {
	sh := c.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.pages[id][epoch]
	if !ok {
		return nil, sh.gen, false
	}
	sh.moveToFront(e)
	return e.n, 0, true
}

// put publishes a decoded node under (id, epoch), evicting from the cold
// end of the shard until it fits. gen is the drop generation get reported
// before the page was read: if the shard has seen a drop since, the page
// may have changed under the decode, so it is not cached. Nodes larger
// than the shard budget are not cached either. Racing puts of the same
// key keep the first entry.
func (c *readCache) put(id PageID, epoch, gen uint64, n *node) {
	cost := nodeCost(n)
	sh := c.shardFor(id)
	sh.mu.Lock()
	if cost > sh.limit || gen != sh.gen {
		sh.mu.Unlock()
		return
	}
	byEpoch, ok := sh.pages[id]
	if !ok {
		byEpoch = make(map[uint64]*rcEntry, 1)
		sh.pages[id] = byEpoch
	} else if _, dup := byEpoch[epoch]; dup {
		sh.mu.Unlock()
		return
	}
	e := &rcEntry{page: id, epoch: epoch, n: n, cost: cost}
	byEpoch[epoch] = e
	sh.pushFront(e)
	sh.used += cost
	evicted := int64(0)
	for sh.used > sh.limit && sh.tail != nil && sh.tail != e {
		evicted++
		sh.removeLocked(sh.tail)
	}
	sh.mu.Unlock()
	if evicted > 0 {
		obs.Engine.Add(obs.CtrReadCacheEvicts, evicted)
	}
}

// drop removes every epoch's entry for the page and bumps the shard's
// generation, so a decode of the old bytes still in flight is not
// published either. Called after the page's bytes change or its id
// becomes reusable (see the file comment).
func (c *readCache) drop(id PageID) {
	sh := c.shardFor(id)
	sh.mu.Lock()
	sh.gen++
	for _, e := range sh.pages[id] {
		sh.removeLocked(e)
	}
	sh.mu.Unlock()
}

// stats reports entry count and resident bytes across all shards.
func (c *readCache) stats() (entries int, bytes int64) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, byEpoch := range sh.pages {
			entries += len(byEpoch)
		}
		bytes += sh.used
		sh.mu.Unlock()
	}
	return entries, bytes
}

// entries lists every cached (page, epoch, node) across all shards.
func (c *readCache) entries() []rcEntry {
	var out []rcEntry
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for e := sh.head; e != nil; e = e.next {
			out = append(out, rcEntry{page: e.page, epoch: e.epoch, n: e.n})
		}
		sh.mu.Unlock()
	}
	return out
}

// pushFront links a new entry at the hot end. Callers hold sh.mu.
func (sh *rcShard) pushFront(e *rcEntry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

// moveToFront marks an entry most recently used. Callers hold sh.mu.
func (sh *rcShard) moveToFront(e *rcEntry) {
	if sh.head == e {
		return
	}
	// Unlink, then relink at the head.
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	if sh.tail == e {
		sh.tail = e.prev
	}
	sh.pushFront(e)
}

// removeLocked unlinks and deletes an entry. Callers hold sh.mu.
func (sh *rcShard) removeLocked(e *rcEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
	byEpoch := sh.pages[e.page]
	delete(byEpoch, e.epoch)
	if len(byEpoch) == 0 {
		delete(sh.pages, e.page)
	}
	sh.used -= e.cost
}
