package storage

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/obs"
)

// rcTestNode builds a small interior node for direct cache tests.
func rcTestNode(page PageID, keyBytes int) *node {
	return &node{
		kind:     pageInternal,
		page:     page,
		keys:     [][]byte{bytes.Repeat([]byte{'k'}, keyBytes)},
		children: []PageID{page + 1, page + 2},
	}
}

func TestReadCachePutGetDrop(t *testing.T) {
	c := newReadCache(1 << 20)
	n1 := rcTestNode(7, 8)
	n2 := rcTestNode(7, 8)

	_, gen, ok := c.get(7, 1)
	if ok {
		t.Fatal("hit on an empty cache")
	}
	c.put(7, 1, gen, n1)
	c.put(7, 2, gen, n2) // same page, later epoch: both live
	if got, _, ok := c.get(7, 1); !ok || got != n1 {
		t.Fatalf("get(7,1) = %v,%v want n1", got, ok)
	}
	if got, _, ok := c.get(7, 2); !ok || got != n2 {
		t.Fatalf("get(7,2) = %v,%v want n2", got, ok)
	}
	if entries, bts := c.stats(); entries != 2 || bts <= 0 {
		t.Fatalf("stats = %d entries %d bytes, want 2 entries", entries, bts)
	}

	// Racing puts of the same key keep the first entry.
	c.put(7, 1, gen, rcTestNode(7, 8))
	if got, _, _ := c.get(7, 1); got != n1 {
		t.Fatal("duplicate put replaced the original entry")
	}

	// drop removes every epoch of the page in one go.
	c.drop(7)
	if _, _, ok := c.get(7, 1); ok {
		t.Fatal("entry survived drop")
	}
	if _, _, ok := c.get(7, 2); ok {
		t.Fatal("second epoch survived drop")
	}
	if entries, bts := c.stats(); entries != 0 || bts != 0 {
		t.Fatalf("stats after drop = %d entries %d bytes, want zeros", entries, bts)
	}

	// A decode that started before the drop (it carries the old
	// generation) may have read the old bytes: put refuses it. One that
	// started after is published.
	c.put(7, 1, gen, n1)
	if _, _, ok := c.get(7, 1); ok {
		t.Fatal("put with a pre-drop generation was cached")
	}
	_, gen, _ = c.get(7, 1)
	c.put(7, 1, gen, n1)
	if got, _, ok := c.get(7, 1); !ok || got != n1 {
		t.Fatal("put with the current generation was not cached")
	}
}

func TestReadCacheEvictsUnderBudget(t *testing.T) {
	// Budget: one shard gets total/readCacheShards bytes. Use big keys so a
	// few entries overflow a shard and force LRU eviction from the tail.
	c := newReadCache(readCacheShards * 1024)
	perEntry := nodeCost(rcTestNode(0, 256))
	if perEntry >= 1024 {
		t.Fatalf("test node too big: %d", perEntry)
	}
	// All on one shard: readCache hashes by page id, so use ids that land
	// together by construction — insert many and rely on per-shard budgets.
	for i := PageID(0); i < 64; i++ {
		c.put(i, 1, 0, rcTestNode(i, 256))
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		if sh.used > sh.limit {
			sh.mu.Unlock()
			t.Fatalf("shard %d over budget: used %d > limit %d", i, sh.used, sh.limit)
		}
		sh.mu.Unlock()
	}
	if entries, _ := c.stats(); entries == 0 || entries >= 64 {
		t.Fatalf("expected partial retention under budget, kept %d/64", entries)
	}

	// An entry larger than a whole shard budget is refused outright.
	big := newReadCache(readCacheShards * 64)
	big.put(1, 1, 0, rcTestNode(1, 512))
	if entries, _ := big.stats(); entries != 0 {
		t.Fatalf("oversized entry was cached (%d entries)", entries)
	}
}

// fillTree inserts n deterministic key/value pairs; a sprinkling of values
// is oversized so the overflow read path is exercised too.
func fillTree(t *testing.T, bt *BTree, n int) map[string][]byte {
	t.Helper()
	want := make(map[string][]byte, n)
	r := rand.New(rand.NewSource(42))
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("key-%06d", i))
		var val []byte
		if i%157 == 0 {
			val = make([]byte, PageSize+512) // forces an overflow chain
			r.Read(val)
		} else {
			val = make([]byte, 8+r.Intn(40))
			r.Read(val)
		}
		if err := bt.Put(key, val); err != nil {
			t.Fatalf("Put %s: %v", key, err)
		}
		want[string(key)] = val
	}
	return want
}

// counterCtx returns a context carrying a fresh per-request counter set.
func counterCtx() (context.Context, *obs.Counters) {
	root := obs.NewRoot("test")
	return obs.ContextWithSpan(context.Background(), root), root.Counters()
}

func TestReadCacheHitsOnRepeatedDescents(t *testing.T) {
	s := OpenMem()
	defer s.Close()
	s.SetReadCacheBytes(8 << 20)
	if s.rcache.Load() == nil {
		t.Fatal("cache not enabled")
	}
	bt, err := NewBTree(s)
	if err != nil {
		t.Fatal(err)
	}
	want := fillTree(t, bt, 3000)

	// First pass decodes and publishes every node it crosses.
	_, c1 := counterCtx()
	for k := range want {
		if _, ok, err := bt.GetC([]byte(k), c1); err != nil || !ok {
			t.Fatalf("get %s: %v %v", k, ok, err)
		}
	}
	if c1.Get(obs.CtrReadCacheMisses) == 0 {
		t.Fatal("cold pass recorded no cache misses")
	}
	if entries, bts := s.ReadCacheStats(); entries == 0 || bts == 0 {
		t.Fatalf("cache empty after cold pass: %d entries %d bytes", entries, bts)
	}

	// Second pass: every node read is a hit, zero misses.
	_, c2 := counterCtx()
	for k, v := range want {
		got, ok, err := bt.GetC([]byte(k), c2)
		if err != nil || !ok || !bytes.Equal(got, v) {
			t.Fatalf("warm get %s mismatch (ok=%v err=%v)", k, ok, err)
		}
	}
	if c2.Get(obs.CtrReadCacheMisses) != 0 {
		t.Fatalf("warm pass recorded %d misses, want 0", c2.Get(obs.CtrReadCacheMisses))
	}
	if c2.Get(obs.CtrReadCacheHits) == 0 {
		t.Fatal("warm pass recorded no hits")
	}
	// Leaves are cached too, so the warm pass decodes nothing at all.
	if c1.Get(obs.CtrCellsDecoded) == 0 || c2.Get(obs.CtrCellsDecoded) != 0 {
		t.Fatalf("cold pass decoded %d cells, warm %d — want some, then none",
			c1.Get(obs.CtrCellsDecoded), c2.Get(obs.CtrCellsDecoded))
	}
}

func TestReadCacheDroppedWhenPagesFree(t *testing.T) {
	s := OpenMem()
	defer s.Close()
	s.SetReadCacheBytes(8 << 20)
	bt, err := NewBTree(s)
	if err != nil {
		t.Fatal(err)
	}
	fillTree(t, bt, 3000)
	s.SetRoot(0, bt.Root())
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	// Warm the cache from the committed state: a full cursor scan plus a
	// spread of point reads covers every interior node.
	warm := OpenBTree(s, s.Root(0))
	it, err := warm.First()
	if err != nil {
		t.Fatal(err)
	}
	for it.Valid() {
		if err := it.Next(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3000; i += 7 {
		if _, _, err := warm.Get([]byte(fmt.Sprintf("key-%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if entries, _ := s.ReadCacheStats(); entries == 0 {
		t.Fatal("cache empty after warming")
	}

	// Retire the tree and commit: with no snapshot pins, every page returns
	// to the free list and its cached decodes must go with it.
	victim := OpenBTree(s, s.Root(0))
	if err := victim.RetireAll(); err != nil {
		t.Fatal(err)
	}
	s.SetRoot(0, 0)
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if entries, bts := s.ReadCacheStats(); entries != 0 {
		t.Fatalf("cache holds %d entries (%d bytes) for freed pages", entries, bts)
	}
}

// TestReadCacheSeesInPlaceRewrites reads pages through the cache between
// a writer's in-place rewrites of them within one transaction — BulkLoad
// reusing the empty root leaf a reader already cached, then Puts rewriting
// fresh leaves — so every read keys by the same published epoch. Each read
// must see the writer's latest bytes, never a cached decode of earlier
// ones.
func TestReadCacheSeesInPlaceRewrites(t *testing.T) {
	s := OpenMem()
	defer s.Close()
	s.SetReadCacheBytes(8 << 20)
	bt, err := NewBTree(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := bt.Get([]byte("key-000000")); err != nil || ok {
		t.Fatalf("Get on the empty tree = %v, %v", ok, err)
	}
	pairs := make([]KV, 1000)
	for i := range pairs {
		pairs[i] = KV{Key: []byte(fmt.Sprintf("key-%06d", i)), Value: []byte("bulk")}
	}
	if err := bt.BulkLoad(pairs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(pairs); i += 50 {
		k := []byte(fmt.Sprintf("key-%06d", i))
		if v, ok, err := bt.Get(k); err != nil || !ok || string(v) != "bulk" {
			t.Fatalf("Get(%s) after BulkLoad = %q, %v, %v", k, v, ok, err)
		}
		v := []byte(fmt.Sprintf("put-%d", i))
		if err := bt.Put(k, v); err != nil {
			t.Fatal(err)
		}
		if got, ok, err := bt.Get(k); err != nil || !ok || !bytes.Equal(got, v) {
			t.Fatalf("Get(%s) after Put = %q, %v, %v", k, got, ok, err)
		}
	}
	if err := s.CheckReadCache(); err != nil {
		t.Fatal(err)
	}
}

func TestReadCacheRekeysAfterCommit(t *testing.T) {
	s := OpenMem()
	defer s.Close()
	s.SetReadCacheBytes(8 << 20)
	bt, err := NewBTree(s)
	if err != nil {
		t.Fatal(err)
	}
	want := fillTree(t, bt, 2000)
	s.SetRoot(0, bt.Root())
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	live := OpenBTree(s, s.Root(0))
	for k := range want {
		if _, _, err := live.Get([]byte(k)); err != nil {
			t.Fatal(err)
		}
	}

	// Overwrite a slice of keys through COW and commit: the live handle
	// keys by the published epoch, so reads after the commit must see the
	// new values — never a stale cached route to the old ones.
	w := OpenBTree(s, s.Root(0))
	for i := 0; i < 2000; i += 3 {
		k := fmt.Sprintf("key-%06d", i)
		v := []byte("rewritten-" + k)
		if err := w.Put([]byte(k), v); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	s.SetRoot(0, w.Root())
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	fresh := OpenBTree(s, s.Root(0))
	for k, v := range want {
		got, ok, err := fresh.Get([]byte(k))
		if err != nil || !ok || !bytes.Equal(got, v) {
			t.Fatalf("post-commit get %s = %q,%v,%v want %q", k, got, ok, err, v)
		}
	}
}

func TestGetBatchMatchesGet(t *testing.T) {
	for _, cacheBytes := range []int64{0, 8 << 20} {
		t.Run(fmt.Sprintf("cache=%d", cacheBytes), func(t *testing.T) {
			s := OpenMem()
			defer s.Close()
			s.SetReadCacheBytes(cacheBytes)
			bt, err := NewBTree(s)
			if err != nil {
				t.Fatal(err)
			}
			want := fillTree(t, bt, 2500)

			// Query mix: present keys in random order, absent keys, and
			// duplicates — results must be positional and match Get.
			r := rand.New(rand.NewSource(7))
			var keys [][]byte
			for i := 0; i < 400; i++ {
				keys = append(keys, []byte(fmt.Sprintf("key-%06d", r.Intn(2500))))
			}
			keys = append(keys, []byte("absent-aaa"), []byte("key-999999"), []byte(""))
			keys = append(keys, keys[0], keys[1]) // duplicates

			vals, found, err := bt.GetBatch(context.Background(), keys)
			if err != nil {
				t.Fatal(err)
			}
			for i, k := range keys {
				wv, wok := want[string(k)]
				if found[i] != wok {
					t.Fatalf("keys[%d]=%q found=%v want %v", i, k, found[i], wok)
				}
				if wok && !bytes.Equal(vals[i], wv) {
					t.Fatalf("keys[%d]=%q value mismatch", i, k)
				}
			}
		})
	}
}

func TestGetBatchSharesDescents(t *testing.T) {
	s := OpenMem()
	defer s.Close()
	bt, err := NewBTree(s)
	if err != nil {
		t.Fatal(err)
	}
	fillTree(t, bt, 3000)

	keys := make([][]byte, 600)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%06d", i*5))
	}
	ctx, c := counterCtx()
	if _, _, err := bt.GetBatch(ctx, keys); err != nil {
		t.Fatal(err)
	}
	descents := c.Get(obs.CtrBTreeDescents)
	if descents == 0 || descents >= int64(len(keys)) {
		t.Fatalf("batch of %d keys took %d descents, want one per leaf (< %d)",
			len(keys), descents, len(keys))
	}
}

func TestGetBatchHonorsContext(t *testing.T) {
	s := OpenMem()
	defer s.Close()
	bt, err := NewBTree(s)
	if err != nil {
		t.Fatal(err)
	}
	fillTree(t, bt, 1000)
	keys := make([][]byte, 1000)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%06d", i))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := bt.GetBatch(ctx, keys); err == nil {
		t.Fatal("batch read on a cancelled context succeeded")
	}
}
