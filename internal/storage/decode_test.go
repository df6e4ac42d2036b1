package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// encodePage encodes n into a zeroed page image.
func encodePage(t testing.TB, n *node) []byte {
	t.Helper()
	page := make([]byte, PageSize)
	if err := n.encode(page); err != nil {
		t.Fatal(err)
	}
	return page
}

// sampleLeaf is a small leaf with one overflow-ref value.
func sampleLeaf() *node {
	ref := make([]byte, overflowRefSize)
	binary.LittleEndian.PutUint64(ref, 42)
	binary.LittleEndian.PutUint32(ref[8:], 5000)
	return &node{
		kind:     pageLeaf,
		keys:     [][]byte{[]byte("a"), []byte("bb"), []byte("ccc")},
		vals:     [][]byte{[]byte("one"), {}, ref},
		overflow: []bool{false, false, true},
	}
}

// sampleInterior is a small interior node.
func sampleInterior() *node {
	return &node{
		kind:     pageInternal,
		keys:     [][]byte{[]byte("m"), []byte("t")},
		children: []PageID{3, 4, 5},
	}
}

// corruptCellLength overwrites the first cell's key length of a leaf image
// with 0xffff: the cell now claims to run far past the page.
func corruptCellLength(page []byte) {
	binary.LittleEndian.PutUint16(page[leafHeaderSize:], 0xffff)
}

func TestDecodeNodeRejectsCorruptPages(t *testing.T) {
	leaf := encodePage(t, sampleLeaf())
	interior := encodePage(t, sampleInterior())
	mutate := func(page []byte, f func([]byte)) []byte {
		p := append([]byte(nil), page...)
		f(p)
		return p
	}
	cases := map[string][]byte{
		"leaf cell body runs past the page": mutate(leaf, corruptCellLength),
		"leaf cell header runs past the page": mutate(leaf, func(p []byte) {
			// Cells fill the page exactly, with the next header cut off.
			binary.LittleEndian.PutUint16(p[1:], 2)
			binary.LittleEndian.PutUint16(p[leafHeaderSize:], uint16(PageSize-leafHeaderSize-4-2))
			binary.LittleEndian.PutUint16(p[leafHeaderSize+2:], 0)
		}),
		"leaf nkeys the page cannot hold": mutate(leaf, func(p []byte) {
			binary.LittleEndian.PutUint16(p[1:], 0xffff)
		}),
		"interior nkeys the page cannot hold": mutate(interior, func(p []byte) {
			binary.LittleEndian.PutUint16(p[1:], 0xffff)
		}),
		"interior entry body runs past the page": mutate(interior, func(p []byte) {
			binary.LittleEndian.PutUint16(p[internalHeaderSize:], 0xffff)
		}),
		"unknown node kind":  mutate(leaf, func(p []byte) { p[0] = 7 }),
		"overflow page kind": mutate(leaf, func(p []byte) { p[0] = pageOverflow }),
		"overflow ref of the wrong size": mutate(leaf, func(p []byte) {
			// Flag the first cell's 3-byte value as an overflow ref.
			binary.LittleEndian.PutUint16(p[leafHeaderSize+2:], 3|0x8000)
		}),
		"short image": leaf[:2],
	}
	for name, page := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := decodeNode(77, page)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decodeNode = %v, want ErrCorrupt", err)
			}
			if !strings.Contains(err.Error(), "page 77") {
				t.Fatalf("error %q does not name the page", err)
			}
		})
	}
}

// TestCorruptLeafOnDiskIsAnError corrupts a committed, checkpointed leaf in
// the page file and reopens the store: a point read must report
// ErrCorrupt, not panic on a slice bound.
func TestCorruptLeafOnDiskIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.db")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := NewBTree(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ { // one leaf's worth: the root is the leaf
		if err := bt.Put([]byte(fmt.Sprintf("key-%02d", i)), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	s.SetRoot(1, bt.Root())
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	leaf := bt.Root()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var field [2]byte
	binary.LittleEndian.PutUint16(field[:], 0xffff)
	if _, err := f.WriteAt(field[:], int64(leaf)*PageSize+leafHeaderSize); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, cache := range []int64{0, 1 << 20} {
		s.SetReadCacheBytes(cache)
		_, _, err = OpenBTree(s, s.Root(1)).Get([]byte("key-05"))
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cache=%d: Get on a corrupt leaf = %v, want ErrCorrupt", cache, err)
		}
	}
}

// FuzzDecodeNode feeds arbitrary page images to the node decoder: it must
// never panic, and every image it accepts must round-trip through encode.
// An accepted node must also own its bytes: appending to a key or value
// copies (they are capacity-clipped), and clearing the source page leaves
// the node intact.
func FuzzDecodeNode(f *testing.F) {
	leaf := encodePage(f, sampleLeaf())
	f.Add(leaf)
	f.Add(encodePage(f, sampleInterior()))
	f.Add(encodePage(f, &node{kind: pageLeaf}))
	corrupt := append([]byte(nil), leaf...)
	corruptCellLength(corrupt)
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, data []byte) {
		page := make([]byte, PageSize)
		copy(page, data)
		n, err := decodeNode(1, page)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		enc := make([]byte, PageSize)
		if err := n.encode(enc); err != nil {
			t.Fatalf("accepted page does not re-encode: %v", err)
		}
		sz := n.encodedSize()
		if !bytes.Equal(enc[:sz], page[:sz]) {
			t.Fatal("accepted page does not round-trip through encode")
		}
		again, err := decodeNode(1, enc)
		if err != nil {
			t.Fatalf("re-encoded page does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, n) {
			t.Fatal("re-decoded node differs")
		}

		for i := range n.keys {
			_ = append(n.keys[i], 'X')
			if n.vals != nil {
				_ = append(n.vals[i], 'Y')
			}
		}
		clear(page)
		after := make([]byte, PageSize)
		if err := n.encode(after); err != nil || !bytes.Equal(after, enc) {
			t.Fatal("node changed after appending to its keys or values and clearing the source page")
		}
	})
}

// TestCheckReadCacheCatchesIncoherence breaks the read cache's two rules —
// shared values are read-only, and every page write drops the page's
// decodes — and expects CheckReadCache to notice each time.
func TestCheckReadCacheCatchesIncoherence(t *testing.T) {
	s := OpenMem()
	defer s.Close()
	s.SetReadCacheBytes(8 << 20)
	bt, err := NewBTree(s)
	if err != nil {
		t.Fatal(err)
	}
	want := fillTree(t, bt, 500)
	key := []byte("key-000001")
	v, ok, err := bt.Get(key) // decodes and caches the leaf
	if err != nil || !ok || !bytes.Equal(v, want[string(key)]) {
		t.Fatalf("Get = %v %v", ok, err)
	}
	if err := s.CheckReadCache(); err != nil {
		t.Fatalf("coherent cache failed the check: %v", err)
	}

	// A caller writes into a shared value.
	v[0] ^= 0xff
	if err := s.CheckReadCache(); err == nil {
		t.Fatal("check missed a caller mutating a shared value")
	}
	v[0] ^= 0xff

	// A page changes in the pool without dropCached.
	id := bt.Root()
	for {
		n, err := bt.readNode(id)
		if err != nil {
			t.Fatal(err)
		}
		if n.kind == pageLeaf {
			break
		}
		id = n.children[childIndex(n, key)]
	}
	page, err := s.ReadPage(id)
	if err != nil {
		t.Fatal(err)
	}
	n, err := decodeNode(id, page)
	if err != nil {
		t.Fatal(err)
	}
	n.vals[0] = append([]byte{}, n.vals[0]...) // a new value, same length
	n.vals[0][0] ^= 0xff
	if err := s.pool.Put(id, encodePage(t, n)); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckReadCache(); err == nil {
		t.Fatal("check missed a page rewritten without dropCached")
	}
	s.dropCached(id)
	if err := s.CheckReadCache(); err != nil {
		t.Fatalf("check still fails after the drop: %v", err)
	}
}

// TestCorruptOverflowPageIsAnError corrupts the length field of an
// overflow chain page: resolving the value must report ErrCorrupt instead
// of slicing past the page.
func TestCorruptOverflowPageIsAnError(t *testing.T) {
	s := OpenMem()
	defer s.Close()
	bt, err := NewBTree(s)
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("big")
	if err := bt.Put(key, bytes.Repeat([]byte{7}, 3*PageSize)); err != nil {
		t.Fatal(err)
	}
	leaf, err := bt.readNode(bt.Root())
	if err != nil {
		t.Fatal(err)
	}
	head := PageID(binary.LittleEndian.Uint64(leaf.vals[0]))
	page, err := s.ReadPage(head)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(page[9:], 0xffffffff)
	if err := s.WritePage(head, page); err != nil {
		t.Fatal(err)
	}
	if _, _, err := bt.Get(key); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get through a corrupt overflow page = %v, want ErrCorrupt", err)
	}
}
