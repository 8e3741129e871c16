// Package heap implements unordered row storage (heap files), the
// simplest primary structure a table can have. Rows are addressed by
// RowID and grouped into pages that live in the storage buffer pool.
package heap

import (
	"fmt"

	"hybriddb/internal/storage"
	"hybriddb/internal/value"
	"hybriddb/internal/vclock"
)

// RowID addresses a row inside a heap file.
type RowID struct {
	Page int32
	Slot int32
}

// String renders the RowID for diagnostics.
func (r RowID) String() string { return fmt.Sprintf("(%d:%d)", r.Page, r.Slot) }

const rowOverhead = 8 // per-slot header bytes for size accounting

type page struct {
	rows  []value.Row
	dead  []bool
	bytes int64
}

func (p *page) ByteSize() int64 { return p.bytes }

// File is a heap file over a simulated store.
type File struct {
	store   *storage.Store
	schema  *value.Schema
	pageIDs []storage.PageID
	live    int64
	total   int64
}

// New creates an empty heap file.
func New(store *storage.Store, schema *value.Schema) *File {
	return &File{store: store, schema: schema}
}

// Schema returns the file's row schema.
func (f *File) Schema() *value.Schema { return f.schema }

// Count returns the number of live rows.
func (f *File) Count() int64 { return f.live }

// Pages returns the number of pages in the file.
func (f *File) Pages() int { return len(f.pageIDs) }

// Bytes returns the file's total on-disk size without perturbing the
// buffer pool.
func (f *File) Bytes() int64 {
	var total int64
	for _, id := range f.pageIDs {
		total += f.store.SizeOf(id)
	}
	return total
}

// Free returns the file's pages to the store, ending the file's life.
func (f *File) Free() {
	for _, id := range f.pageIDs {
		f.store.Free(id)
	}
	f.pageIDs = nil
}

// Insert appends a row and returns its RowID. Write I/O is charged by
// the DML layer, not here.
func (f *File) Insert(row value.Row) RowID {
	w := int64(row.Width() + rowOverhead)
	var p *page
	var pid storage.PageID
	pageIdx := len(f.pageIDs) - 1
	if pageIdx >= 0 {
		pid = f.pageIDs[pageIdx]
		p = f.store.Get(nil, pid, true).(*page)
		if p.bytes+w > storage.PageSize {
			p = nil
		}
	}
	if p == nil {
		p = &page{}
		pid = f.store.Allocate(p)
		f.pageIDs = append(f.pageIDs, pid)
		pageIdx = len(f.pageIDs) - 1
	}
	p.rows = append(p.rows, row.Clone())
	p.dead = append(p.dead, false)
	p.bytes += w
	f.store.Write(pid, p)
	f.live++
	f.total++
	return RowID{Page: int32(pageIdx), Slot: int32(len(p.rows) - 1)}
}

// Get fetches the row at rid, or nil if it was deleted. The tracker is
// charged a random page read if the page is cold.
func (f *File) Get(tr *vclock.Tracker, rid RowID) value.Row {
	if int(rid.Page) >= len(f.pageIDs) {
		return nil
	}
	p := f.store.Get(tr, f.pageIDs[rid.Page], false).(*page)
	if int(rid.Slot) >= len(p.rows) || p.dead[rid.Slot] {
		return nil
	}
	return p.rows[rid.Slot]
}

// Delete tombstones the row at rid, reporting whether it was live.
func (f *File) Delete(rid RowID) bool {
	if int(rid.Page) >= len(f.pageIDs) {
		return false
	}
	pid := f.pageIDs[rid.Page]
	p := f.store.Get(nil, pid, false).(*page)
	if int(rid.Slot) >= len(p.rows) || p.dead[rid.Slot] {
		return false
	}
	p.dead[rid.Slot] = true
	p.bytes -= int64(p.rows[rid.Slot].Width() + rowOverhead)
	p.rows[rid.Slot] = nil
	f.store.Write(pid, p)
	f.live--
	return true
}

// Update replaces the row at rid in place, reporting whether it was live.
func (f *File) Update(rid RowID, row value.Row) bool {
	if int(rid.Page) >= len(f.pageIDs) {
		return false
	}
	pid := f.pageIDs[rid.Page]
	p := f.store.Get(nil, pid, false).(*page)
	if int(rid.Slot) >= len(p.rows) || p.dead[rid.Slot] {
		return false
	}
	p.bytes += int64(row.Width()) - int64(p.rows[rid.Slot].Width())
	p.rows[rid.Slot] = row.Clone()
	f.store.Write(pid, p)
	return true
}

// SampleBlocks returns one reader per page, for block sampling: each
// appends its page's live rows to dst, peeking outside the buffer pool.
func (f *File) SampleBlocks() (out []func(dst []value.Row) []value.Row) {
	for _, id := range f.pageIDs {
		out = append(out, func(dst []value.Row) []value.Row {
			p := f.store.Get(nil, id, true).(*page)
			for s, row := range p.rows {
				if !p.dead[s] {
					dst = append(dst, row)
				}
			}
			return dst
		})
	}
	return out
}

// Iter is a pull-based cursor over live rows in storage order.
type Iter struct {
	f       *File
	tr      *vclock.Tracker
	pageIdx int
	slot    int
	page    *page
}

// NewIter starts a sequential scan cursor.
func (f *File) NewIter(tr *vclock.Tracker) *Iter {
	return &Iter{f: f, tr: tr, pageIdx: -1}
}

// Next returns the next live row, or (zero, nil, false) at the end.
func (it *Iter) Next() (RowID, value.Row, bool) {
	for {
		if it.page == nil || it.slot >= len(it.page.rows) {
			it.pageIdx++
			if it.pageIdx >= len(it.f.pageIDs) {
				return RowID{}, nil, false
			}
			it.page = it.f.store.Get(it.tr, it.f.pageIDs[it.pageIdx], true).(*page)
			it.slot = 0
			continue
		}
		s := it.slot
		it.slot++
		if it.page.dead[s] {
			continue
		}
		return RowID{Page: int32(it.pageIdx), Slot: int32(s)}, it.page.rows[s], true
	}
}

// Scan visits every live row in storage order, reading pages
// sequentially, until fn returns false.
func (f *File) Scan(tr *vclock.Tracker, fn func(rid RowID, row value.Row) bool) {
	it := f.NewIter(tr)
	for rid, row, ok := it.Next(); ok && fn(rid, row); rid, row, ok = it.Next() {
	}
}
