package certifier

import "repro/internal/writeset"

// The conflict index keeps each table's slots in pages of pageSize
// consecutive row ids, as sidb keeps its rows: catalog ids are dense,
// so a loaded table costs one slot per row and one map entry per page,
// and the maps grow by pages, not rows. A lone sparse id costs a whole
// page.
const (
	pageBits = 6
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// indexPage holds the newest committed version of pageSize consecutive
// row ids. A slot of 0 was never written, or its writer was pruned:
// versions start at 1.
type indexPage [pageSize]int64

// indexTable is one table's pages, keyed by row id >> pageBits.
type indexTable map[int64]*indexPage

// conflictIndex maps each row key to the newest committed version that
// wrote it. The zero value is an empty index.
//
// Pruning zeroes a slot but keeps its page, and a table is never
// dropped: a hot row written again after GC pruned its writer reuses
// the page instead of allocating a new one. Because nothing is ever
// removed, the index can remember what its last lookup resolved, the
// table and the page or their absence: a writeset's entries come in
// runs of one table, and a load record's in runs of consecutive rows,
// so most lookups touch no map.
type conflictIndex struct {
	tables map[string]indexTable
	live   int // nonzero slots

	// The last lookup's key resolved to lastTable = tables[lastName]
	// and lastPage = lastTable[lastNo], each nil when absent; the zero
	// value holds for an empty index. Only a lookup adds a table or
	// page, and it updates these as it does.
	lastName  string
	lastTable indexTable
	lastNo    int64
	lastPage  *indexPage
}

// page returns the page holding k's slot. With add false it returns
// nil when the index has none; with add true it adds the page.
func (x *conflictIndex) page(k writeset.Key, add bool) *indexPage {
	no := k.Row >> pageBits
	switch {
	case k.Table != x.lastName:
		x.lastName, x.lastTable = k.Table, x.tables[k.Table]
		x.lastNo, x.lastPage = no, x.lastTable[no]
	case no != x.lastNo:
		x.lastNo, x.lastPage = no, x.lastTable[no]
	}
	if x.lastPage == nil && add {
		if x.lastTable == nil {
			if x.tables == nil {
				x.tables = make(map[string]indexTable)
			}
			x.lastTable = make(indexTable)
			x.tables[k.Table] = x.lastTable
		}
		x.lastPage = new(indexPage)
		x.lastTable[no] = x.lastPage
	}
	return x.lastPage
}

// get returns the newest version that wrote k, 0 when none is indexed.
func (x *conflictIndex) get(k writeset.Key) int64 {
	if p := x.page(k, false); p != nil {
		return p[k.Row&pageMask]
	}
	return 0
}

// set records version v (>= 1) as k's newest writer.
func (x *conflictIndex) set(k writeset.Key, v int64) {
	slot := &x.page(k, true)[k.Row&pageMask]
	if *slot == 0 {
		x.live++
	}
	*slot = v
}

// prune clears k's slot when its newest writer is at or below upTo; a
// newer writer keeps the slot live.
func (x *conflictIndex) prune(k writeset.Key, upTo int64) {
	p := x.page(k, false)
	if p == nil {
		return
	}
	if slot := &p[k.Row&pageMask]; *slot != 0 && *slot <= upTo {
		*slot = 0
		x.live--
	}
}
