package core

import (
	"ofmtl/internal/memmodel"
	"ofmtl/internal/openflow"
)

// The memory account. Every structure states its modelled memory once,
// in a memory method adding each memory it provisions — depth rows of
// width bits, in one of Section IV's three buckets — to a memAccount.
// Summed, the statement is BackendStats: what a table publishes after
// every mutation and what budgets admit commits against. With a report
// attached, it is MemoryReport's component list. The views agree by
// construction.
//
// Much of the model is sized by high-water marks (label widths, the
// combination and action depths, LUT buckets, the tss tuple directory),
// which no removal lowers. A commit records the marks of every table it
// touches before applying anything, and any rejection — a failing
// command, an injected fault, a budget — puts them back after the undo
// log has run: a rejected commit leaves the account as it found it.

// memBucket is the part of the architecture a memory belongs to (the
// three BackendStats buckets).
type memBucket uint8

const (
	searchMem memBucket = iota
	indexMem
	actionMem
)

// memAccount collects one statement of modelled memory. The bucket
// totals are always summed; component names are built only when a
// report is attached, so stating memory on the per-commit path allocates
// nothing.
type memAccount struct {
	BackendStats
	// report, when set, receives every memory as a named component.
	report *memmodel.SystemReport
	// prefix is the component-name prefix: the table ("table3") or, while
	// an mbt field searcher states its memories, the table and the field
	// ("table3/ipv4dst").
	prefix string
}

// add states one memory of depth rows of width bits.
func (a *memAccount) add(b memBucket, name string, depth, width int) {
	bits := uint64(depth * width)
	switch b {
	case searchMem:
		a.SearchBits += bits
	case indexMem:
		a.IndexBits += bits
	default:
		a.ActionBits += bits
	}
	if a.report != nil {
		a.report.Add(a.prefix+"/"+name, depth, width)
	}
}

// addBits states a memory known only by its size (reported one bit wide,
// as memmodel.SystemReport.AddBits does); an empty one is left out.
func (a *memAccount) addBits(b memBucket, name string, bits int) {
	if bits > 0 {
		a.add(b, name, bits, 1)
	}
}

// statsOf sums a backend's memory statement into its bucket totals.
func statsOf(b Backend) BackendStats {
	var a memAccount
	b.memory(&a)
	return a.BackendStats
}

// highWater is implemented by the structures whose memory statement
// reads high-water marks. marks appends the marks to dst; restoreMarks
// sets them from the front of src, in the same order, and returns the
// rest. A mark is never set below what the live entries need.
type highWater interface {
	marks(dst []int) []int
	restoreMarks(src []int) []int
}

// markTouchedLocked records, before a commit applies anything, the tables
// its commands touch — suspending their stats publication, so each
// publishes once when the commit ends — and each one's high-water marks.
// The pipeline's buffers are reused from commit to commit. Caller holds
// the write lock.
func (p *Pipeline) markTouchedLocked(cmds []FlowCmd) []*LookupTable {
	p.touched, p.marks = p.touched[:0], p.marks[:0]
	for i := range cmds {
		t := p.tables[cmds[i].Table]
		if t.suspendPublish {
			continue
		}
		t.suspendPublish = true
		p.touched = append(p.touched, t)
		if hw, ok := t.backend.(highWater); ok {
			p.marks = hw.marks(p.marks)
		}
	}
	return p.touched
}

// restoreMarksLocked puts the marks markTouchedLocked recorded back, on
// the rejection path after the undo log has run (which also swapped back
// any backend an inline migration replaced).
func (p *Pipeline) restoreMarksLocked() {
	src := p.marks
	for _, t := range p.touched {
		if hw, ok := t.backend.(highWater); ok {
			src = hw.restoreMarks(src)
		}
	}
}

// flushStatsLocked resumes per-mutation stats publication on the tables
// the last commit suspended, publishing once per dirty table. Idempotent:
// the commit's deferred call finds nothing to do when the megaflow path
// already flushed.
func (p *Pipeline) flushStatsLocked() {
	for _, t := range p.touched {
		if t.suspendPublish {
			t.suspendPublish = false
			if t.statsDirty {
				t.statsDirty = false
				t.publishStats()
			}
		}
	}
}

// BackendStats is a backend's modelled memory breakdown, in bits. The
// three buckets mirror the architecture of Section IV: the per-field (or
// per-tuple) search structures, the index-calculation / directory stage,
// and the action rows.
type BackendStats struct {
	// SearchBits covers the field-search structures: tries, LUTs and
	// range tables for mbt; the per-tuple hash entries and the ternary
	// spill list for tss; the ternary array for lineartcam.
	SearchBits uint64
	// IndexBits covers the combination store (mbt) or the tuple
	// directory (tss); lineartcam has no index stage.
	IndexBits uint64
	// ActionBits covers the action rows the scheme stores.
	ActionBits uint64
}

// TotalBits sums the breakdown.
func (s BackendStats) TotalBits() uint64 {
	return s.SearchBits + s.IndexBits + s.ActionBits
}

// TotalBytes returns the total rounded up to whole bytes.
func (s BackendStats) TotalBytes() uint64 { return (s.TotalBits() + 7) / 8 }

// TableMemory is one table's published memory accounting: the backend
// kind, the live rule count and the bit breakdown. The pipeline
// republishes it through an atomic pointer after every mutation, which is
// what makes MemoryStats readable lock-free under full churn.
type TableMemory struct {
	Table   openflow.TableID
	Backend string
	Rules   int
	// BudgetBits is the table's configured memory budget in bits
	// (0 = unlimited); commits that would grow the table past it are
	// rejected (see budget.go).
	BudgetBits uint64
	BackendStats
}

// MemoryStats is the pipeline-wide live memory view: one entry per table
// in pipeline order plus the total and the process-wide budget
// (0 = unlimited).
type MemoryStats struct {
	Tables     []TableMemory
	TotalBits  uint64
	BudgetBits uint64
}

// TotalBytes returns the pipeline total rounded up to whole bytes.
func (m MemoryStats) TotalBytes() uint64 { return (m.TotalBits + 7) / 8 }
