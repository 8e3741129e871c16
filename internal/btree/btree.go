// Package btree implements a paged B+ tree over order-preserving
// encoded composite keys with arbitrary row payloads. It backs primary
// (clustered) and secondary B+ tree indexes, the columnstore delta
// store, and the secondary-columnstore delete buffer.
//
// Nodes live in a storage.Store so that cold traversals charge random
// page reads and leaf-chain scans charge sequential reads, matching
// the access-pattern asymmetry the paper measures. Duplicate keys are
// allowed; deletion is lazy (no rebalancing), as in most production
// engines where underfull pages are reclaimed by background cleanup.
package btree

import (
	"bytes"
	"sort"

	"hybriddb/internal/metrics"
	"hybriddb/internal/storage"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
)

// mSplits counts page splits (leaf, internal, and root) across every
// tree in the process — the write-amplification signal behind the
// paper's B+ tree update costs.
var mSplits = metrics.NewCounter("hybriddb_btree_splits_total", "B+ tree page splits")

const (
	entryOverhead = 16  // per-entry header bytes for size accounting
	childOverhead = 24  // per-child bytes in internal nodes
	fillFactor    = 0.9 // bulk-load page fill target
)

type entry struct {
	key []byte    // order-preserving encoding of kv
	kv  value.Row // decoded key columns
	row value.Row // payload (included columns / full row / locator)
}

func (e *entry) size() int64 {
	return int64(len(e.key) + e.row.Width() + entryOverhead)
}

type node struct {
	leaf     bool
	entries  []entry        // leaf only
	next     storage.PageID // leaf chain, 0 = end
	keys     [][]byte       // internal separators, len(children)-1
	children []storage.PageID
}

func (n *node) ByteSize() int64 {
	var b int64 = 32
	if n.leaf {
		for i := range n.entries {
			b += n.entries[i].size()
		}
		return b
	}
	for _, k := range n.keys {
		b += int64(len(k))
	}
	b += int64(len(n.children)) * childOverhead
	return b
}

// Tree is a B+ tree index.
type Tree struct {
	store  *storage.Store
	root   storage.PageID
	height int // 1 = root is a leaf
	count  int64
	pages  []storage.PageID // all node pages, for Bytes()
}

// New creates an empty tree in the given store.
func New(store *storage.Store) *Tree {
	t := &Tree{store: store, height: 1}
	root := &node{leaf: true}
	t.root = store.Allocate(root)
	t.pages = append(t.pages, t.root)
	return t
}

// Count returns the number of entries.
func (t *Tree) Count() int64 { return t.count }

// Height returns the number of levels (1 = single leaf).
func (t *Tree) Height() int { return t.height }

// Bytes returns the tree's total on-disk size without perturbing the
// buffer pool.
func (t *Tree) Bytes() int64 {
	var total int64
	for _, id := range t.pages {
		total += t.store.SizeOf(id)
	}
	return total
}

// Pages returns the number of pages in the tree.
func (t *Tree) Pages() int { return len(t.pages) }

// Free returns every page of the tree to the store. The tree must not
// be used afterwards: the owner calls it when it replaces or drops the
// structure.
func (t *Tree) Free() {
	for _, id := range t.pages {
		t.store.Free(id)
	}
	t.pages = nil
}

func (t *Tree) get(tr *vclock.Tracker, id storage.PageID, seq bool) *node {
	n := t.store.Get(tr, id, seq).(*node)
	if tr != nil {
		tr.ChargeSerialCPU(tr.Model.PageCPU)
	}
	return n
}

// descend walks from the root to the leaf that owns key, returning the
// leaf and its page ID. If path is non-nil the internal page IDs
// visited are appended (used by insert for split propagation).
func (t *Tree) descend(tr *vclock.Tracker, key []byte, path *[]storage.PageID) (*node, storage.PageID) {
	if tr != nil {
		tr.ChargeSerialCPU(tr.Model.SeekCPU)
	}
	id := t.root
	n := t.get(tr, id, false)
	for !n.leaf {
		if path != nil {
			*path = append(*path, id)
		}
		// keys[i] separates children[i] (< keys[i]) from children[i+1]
		// (>= keys[i]). Descend left on equality: duplicates may straddle
		// a split boundary, and Seek must find the leftmost; iterators
		// continue across the leaf chain.
		i := sort.Search(len(n.keys), func(i int) bool {
			return bytes.Compare(n.keys[i], key) >= 0
		})
		id = n.children[i]
		n = t.get(tr, id, false)
	}
	return n, id
}

// Insert adds an entry. Duplicate keys are allowed; the new entry is
// placed after existing equal keys (insertion order preserved).
func (t *Tree) Insert(tr *vclock.Tracker, key value.Row, payload value.Row) {
	e := entry{key: value.EncodeKey(nil, key...), kv: key.Clone(), row: payload.Clone()}
	var path []storage.PageID
	leaf, leafID := t.descend(tr, e.key, &path)
	// Upper bound: first entry strictly greater.
	i := sort.Search(len(leaf.entries), func(i int) bool {
		return bytes.Compare(leaf.entries[i].key, e.key) > 0
	})
	leaf.entries = append(leaf.entries, entry{})
	copy(leaf.entries[i+1:], leaf.entries[i:])
	leaf.entries[i] = e
	t.count++
	if tr != nil {
		tr.ChargeSerialCPU(vclock.CPU(1, tr.Model.RowCPU))
		tr.ChargeDataWrite(e.size(), 0)
	}
	t.store.Write(leafID, leaf)
	if leaf.ByteSize() > storage.PageSize {
		t.splitLeaf(leaf, leafID, path)
	}
}

// splitLeaf splits an oversized leaf and propagates separators upward.
func (t *Tree) splitLeaf(leaf *node, leafID storage.PageID, path []storage.PageID) {
	mSplits.Inc()
	mid := len(leaf.entries) / 2
	right := &node{leaf: true, next: leaf.next}
	right.entries = append(right.entries, leaf.entries[mid:]...)
	leaf.entries = leaf.entries[:mid:mid]
	sep := right.entries[0].key
	rightID := t.store.Allocate(right)
	t.pages = append(t.pages, rightID)
	leaf.next = rightID
	t.store.Write(leafID, leaf)
	t.insertSeparator(path, leafID, sep, rightID)
}

// insertSeparator inserts (sep, rightID) into the parent at the end of
// path, splitting internal nodes upward as needed.
func (t *Tree) insertSeparator(path []storage.PageID, leftID storage.PageID, sep []byte, rightID storage.PageID) {
	for {
		if len(path) == 0 {
			// Split the root: grow the tree.
			newRoot := &node{
				keys:     [][]byte{sep},
				children: []storage.PageID{leftID, rightID},
			}
			t.root = t.store.Allocate(newRoot)
			t.pages = append(t.pages, t.root)
			t.height++
			return
		}
		parentID := path[len(path)-1]
		path = path[:len(path)-1]
		parent := t.store.Get(nil, parentID, false).(*node)
		// Position of leftID among children.
		ci := 0
		for ci < len(parent.children) && parent.children[ci] != leftID {
			ci++
		}
		parent.keys = append(parent.keys, nil)
		copy(parent.keys[ci+1:], parent.keys[ci:])
		parent.keys[ci] = sep
		parent.children = append(parent.children, 0)
		copy(parent.children[ci+2:], parent.children[ci+1:])
		parent.children[ci+1] = rightID
		t.store.Write(parentID, parent)
		if parent.ByteSize() <= storage.PageSize {
			return
		}
		// Split internal node.
		mSplits.Inc()
		mid := len(parent.keys) / 2
		upKey := parent.keys[mid]
		right := &node{
			keys:     append([][]byte(nil), parent.keys[mid+1:]...),
			children: append([]storage.PageID(nil), parent.children[mid+1:]...),
		}
		parent.keys = parent.keys[:mid:mid]
		parent.children = parent.children[: mid+1 : mid+1]
		newRightID := t.store.Allocate(right)
		t.pages = append(t.pages, newRightID)
		t.store.Write(parentID, parent)
		leftID, sep, rightID = parentID, upKey, newRightID
	}
}

// Delete removes the first entry with the given key for which match
// returns true (a nil match removes the first entry with the key).
// It reports whether an entry was removed.
func (t *Tree) Delete(tr *vclock.Tracker, key value.Row, match func(payload value.Row) bool) bool {
	enc := value.EncodeKey(nil, key...)
	leaf, leafID := t.descend(tr, enc, nil)
	for leaf != nil {
		i := sort.Search(len(leaf.entries), func(i int) bool {
			return bytes.Compare(leaf.entries[i].key, enc) >= 0
		})
		for ; i < len(leaf.entries); i++ {
			if !bytes.Equal(leaf.entries[i].key, enc) {
				return false
			}
			if match == nil || match(leaf.entries[i].row) {
				if tr != nil {
					tr.ChargeSerialCPU(vclock.CPU(1, tr.Model.RowCPU))
					tr.ChargeDataWrite(leaf.entries[i].size(), 0)
				}
				leaf.entries = append(leaf.entries[:i], leaf.entries[i+1:]...)
				t.store.Write(leafID, leaf)
				t.count--
				return true
			}
		}
		if leaf.next == 0 {
			return false
		}
		leafID = leaf.next
		leaf = t.get(tr, leaf.next, true)
	}
	return false
}

// Modify updates, in place, the payload of the first entry with the
// given key for which match returns true. The key must not change.
// It reports whether an entry was modified.
func (t *Tree) Modify(tr *vclock.Tracker, key value.Row, match func(payload value.Row) bool, update func(payload value.Row) value.Row) bool {
	enc := value.EncodeKey(nil, key...)
	leaf, leafID := t.descend(tr, enc, nil)
	for leaf != nil {
		i := sort.Search(len(leaf.entries), func(i int) bool {
			return bytes.Compare(leaf.entries[i].key, enc) >= 0
		})
		for ; i < len(leaf.entries); i++ {
			if !bytes.Equal(leaf.entries[i].key, enc) {
				return false
			}
			if match == nil || match(leaf.entries[i].row) {
				leaf.entries[i].row = update(leaf.entries[i].row).Clone()
				if tr != nil {
					tr.ChargeSerialCPU(vclock.CPU(1, tr.Model.RowCPU))
					tr.ChargeDataWrite(leaf.entries[i].size(), 0)
				}
				t.store.Write(leafID, leaf)
				return true
			}
		}
		if leaf.next == 0 {
			return false
		}
		leafID = leaf.next
		leaf = t.get(tr, leaf.next, true)
	}
	return false
}

// Iterator walks leaf entries in key order.
type Iterator struct {
	t    *Tree
	tr   *vclock.Tracker
	node *node
	idx  int
}

// Seek returns an iterator positioned at the first entry whose key is
// >= the encoding of key. Partial keys (a prefix of the indexed
// columns) are supported.
func (t *Tree) Seek(tr *vclock.Tracker, key value.Row) *Iterator {
	enc := value.EncodeKey(nil, key...)
	leaf, _ := t.descend(tr, enc, nil)
	it := &Iterator{t: t, tr: tr, node: leaf}
	it.idx = sort.Search(len(leaf.entries), func(i int) bool {
		return bytes.Compare(leaf.entries[i].key, enc) >= 0
	})
	it.skipEmpty()
	return it
}

// First returns an iterator positioned at the smallest entry.
func (t *Tree) First(tr *vclock.Tracker) *Iterator {
	if tr != nil {
		tr.ChargeSerialCPU(tr.Model.SeekCPU)
	}
	id := t.root
	n := t.get(tr, id, false)
	for !n.leaf {
		id = n.children[0]
		n = t.get(tr, id, false)
	}
	it := &Iterator{t: t, tr: tr, node: n}
	it.skipEmpty()
	return it
}

// skipEmpty advances across exhausted leaves (sequential leaf-chain
// reads) until a valid position or the end of the tree.
func (it *Iterator) skipEmpty() {
	for it.node != nil && it.idx >= len(it.node.entries) {
		if it.node.next == 0 {
			it.node = nil
			return
		}
		it.node = it.t.get(it.tr, it.node.next, true)
		it.idx = 0
	}
}

// Valid reports whether the iterator is positioned on an entry.
func (it *Iterator) Valid() bool { return it.node != nil }

// Next advances to the next entry.
func (it *Iterator) Next() {
	it.idx++
	it.skipEmpty()
}

// Key returns the decoded key columns at the current position.
func (it *Iterator) Key() value.Row { return it.node.entries[it.idx].kv }

// Row returns the payload at the current position.
func (it *Iterator) Row() value.Row { return it.node.entries[it.idx].row }

// SampleBlocks returns one reader per non-empty leaf, for block
// sampling: each appends its leaf's payload rows to dst. The leaves are
// found by walking the leaf chain, peeking at pages outside the buffer
// pool.
func (t *Tree) SampleBlocks() (out []func(dst []value.Row) []value.Row) {
	for it := t.First(nil); it.Valid(); it.skipEmpty() {
		leaf := it.node
		out = append(out, func(dst []value.Row) []value.Row {
			for i := range leaf.entries {
				dst = append(dst, leaf.entries[i].row)
			}
			return dst
		})
		it.idx = len(leaf.entries)
	}
	return out
}

// Item is a key/payload pair for bulk loading.
type Item struct {
	Key value.Row
	Row value.Row
}

// BulkLoad builds the tree bottom-up from items in any order, sorted by
// encoded key (value.SortKeys; each entry keeps its slice of the key
// arena). The tree must be empty. Pages are packed to the fill factor,
// which is how index builds (CREATE INDEX, delta compression) produce
// dense trees.
func (t *Tree) BulkLoad(tr *vclock.Tracker, items []Item) {
	if t.count != 0 {
		panic("btree: BulkLoad on non-empty tree")
	}
	if len(items) == 0 {
		return
	}
	// Release the empty root.
	t.store.Free(t.root)
	t.pages = t.pages[:0]

	var target int64 = storage.PageSize
	target = int64(float64(target) * fillFactor)
	// Build leaves.
	var leafIDs []storage.PageID
	var firstKeys [][]byte
	cur := &node{leaf: true}
	var curSize int64 = 32
	flush := func() {
		if len(cur.entries) == 0 {
			return
		}
		id := t.store.Allocate(cur)
		t.pages = append(t.pages, id)
		leafIDs = append(leafIDs, id)
		firstKeys = append(firstKeys, cur.entries[0].key)
		cur = &node{leaf: true}
		curSize = 32
	}
	sorted := value.SortKeys(len(items), func(dst []byte, i int) []byte { return value.EncodeKey(dst, items[i].Key...) })
	for i := range items {
		it := items[sorted.Pos(i)]
		e := entry{key: sorted.Key(i), kv: it.Key.Clone(), row: it.Row.Clone()}
		if curSize+e.size() > target && len(cur.entries) > 0 {
			flush()
		}
		curSize += e.size()
		cur.entries = append(cur.entries, e)
		t.count++
	}
	flush()
	// Link the leaf chain.
	for i := 0; i+1 < len(leafIDs); i++ {
		n := t.store.Get(nil, leafIDs[i], true).(*node)
		n.next = leafIDs[i+1]
		t.store.Write(leafIDs[i], n)
	}
	if tr != nil {
		tr.ChargeSerialCPU(vclock.CPU(int64(len(items)), tr.Model.RowCPU/4))
	}
	// Build internal levels.
	childIDs, childFirst := leafIDs, firstKeys
	t.height = 1
	for len(childIDs) > 1 {
		var levelIDs []storage.PageID
		var levelFirst [][]byte
		in := &node{}
		var inSize int64 = 32
		start := 0
		flushInternal := func(end int) {
			if end-start == 0 {
				return
			}
			in.children = append([]storage.PageID(nil), childIDs[start:end]...)
			in.keys = nil
			for i := start + 1; i < end; i++ {
				in.keys = append(in.keys, childFirst[i])
			}
			id := t.store.Allocate(in)
			t.pages = append(t.pages, id)
			levelIDs = append(levelIDs, id)
			levelFirst = append(levelFirst, childFirst[start])
			in = &node{}
			inSize = 32
			start = end
		}
		for i := range childIDs {
			sz := int64(childOverhead + len(childFirst[i]))
			if inSize+sz > target && i > start {
				flushInternal(i)
			}
			inSize += sz
		}
		flushInternal(len(childIDs))
		childIDs, childFirst = levelIDs, levelFirst
		t.height++
	}
	t.root = childIDs[0]
	if tr != nil {
		var written int64
		for _, id := range t.pages {
			written += t.store.SizeOf(id)
		}
		tr.ChargeDataWrite(written, 1)
	}
}
