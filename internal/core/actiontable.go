package core

import (
	"fmt"

	"ofmtl/internal/cow"
	"ofmtl/internal/openflow"
)

// ActionTable stores the instruction sets flow entries execute on a match
// (Section IV.C: Goto-Table, Write-action, and the rest of the v1.3
// instruction set). Identical instruction sets are stored once and
// reference counted — the action-table analogue of the label method — so
// the MAC-learning application's thousands of rules resolve to at most one
// row per (output port) combination.
//
// Lookups read the rows only, a paged array shared with the views Publish
// returns; reference counts, the dedup index and the freelist are control
// state. Referencing or dereferencing a row that stays live writes no
// page.
type ActionTable struct {
	rows cow.Array[actionRow]
	live int
	peak int

	ctl *actionControl // nil in a published view
}

// actionRow is one row as lookups see it.
type actionRow struct {
	instrs []openflow.Instruction
	live   bool
}

// actionControl is the state only updates touch: per-row reference counts
// and dedup keys (indexed like rows), the key index and the freelist.
type actionControl struct {
	refs  []int
	keys  []string
	free  []uint32
	byKey map[string]uint32
}

// NewActionTable returns an empty action table.
func NewActionTable() *ActionTable {
	return &ActionTable{ctl: &actionControl{byKey: make(map[string]uint32)}}
}

// instrKey serialises an instruction list into a map key using the wire
// codec (a canonical byte encoding).
func instrKey(instrs []openflow.Instruction) string {
	e := openflow.FlowEntry{Instructions: instrs}
	return string(openflow.AppendFlowEntry(nil, &e))
}

// Add stores (or references) an instruction set and returns its index.
func (t *ActionTable) Add(instrs []openflow.Instruction) uint32 {
	c := t.ctl
	key := instrKey(instrs)
	if idx, ok := c.byKey[key]; ok {
		c.refs[idx]++
		return idx
	}
	var idx uint32
	if n := len(c.free); n > 0 {
		idx = c.free[n-1]
		c.free = c.free[:n-1]
		c.refs[idx], c.keys[idx] = 1, key
	} else {
		idx = uint32(len(c.refs))
		c.refs, c.keys = append(c.refs, 1), append(c.keys, key)
	}
	*t.rows.Mut(int(idx)) = actionRow{instrs: instrs, live: true}
	c.byKey[key] = idx
	t.live++
	if t.live > t.peak {
		t.peak = t.live
	}
	return idx
}

// Find returns the index of an instruction set without referencing it.
func (t *ActionTable) Find(instrs []openflow.Instruction) (uint32, bool) {
	idx, ok := t.ctl.byKey[instrKey(instrs)]
	return idx, ok
}

// Get returns the instruction set at idx.
func (t *ActionTable) Get(idx uint32) ([]openflow.Instruction, error) {
	r := t.rows.Get(int(idx))
	if !r.live {
		return nil, fmt.Errorf("core: action index %d not live", idx)
	}
	return r.instrs, nil
}

// Release dereferences the entry at idx, freeing the row when its last
// reference disappears.
func (t *ActionTable) Release(idx uint32) error {
	c := t.ctl
	if int(idx) >= len(c.refs) || c.refs[idx] == 0 {
		return fmt.Errorf("core: release of dead action index %d", idx)
	}
	c.refs[idx]--
	if c.refs[idx] > 0 {
		return nil
	}
	delete(c.byKey, c.keys[idx])
	c.keys[idx] = ""
	*t.rows.Mut(int(idx)) = actionRow{}
	c.free = append(c.free, idx)
	t.live--
	return nil
}

// Publish returns an immutable view of the table as it stands: the rows,
// shared page by page, and the counters the memory model reads. Later
// updates to t never show in it.
func (t *ActionTable) Publish() *ActionTable {
	return &ActionTable{rows: t.rows.Publish(), live: t.live, peak: t.peak}
}

// Len returns the number of live rows.
func (t *ActionTable) Len() int { return t.live }

// Peak returns the high-water mark of live rows (the provisioned depth in
// the memory model).
func (t *ActionTable) Peak() int { return t.peak }

// RestorePeak sets the provisioned-depth high-water mark to peak, but
// never below the live row count (see label.Allocator.RestorePeak).
func (t *ActionTable) RestorePeak(peak int) {
	if peak < t.live {
		peak = t.live
	}
	t.peak = peak
}
