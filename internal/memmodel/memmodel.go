// Package memmodel implements the hardware memory cost model of the
// paper's Section V: it converts the population statistics of the lookup
// structures (multi-bit tries, exact-match LUTs, index-calculation and
// action tables) into bit counts, and maps bit counts onto the embedded
// memory blocks of the synthesis target (Stratix V M20K blocks).
//
// The paper specifies the trie node data as "the child pointer, the label
// and a flag bit", with per-level child pointer sizes "determined by the
// worst case (lower trie)". The exact widths are not published; this model
// derives them explicitly:
//
//   - flag: 1 bit;
//   - label: ceil(log2(labelCount)) bits, at least MinLabelBits;
//   - child pointer at level k: ceil(log2(capacity slots at level k+1)),
//     sized either from the trie's own population or from a caller-supplied
//     worst case; the leaf level has no pointer.
//
// The experiments package records where this reconstruction lands relative to the
// paper's published Kbit figures.
package memmodel

import (
	"fmt"

	"ofmtl/internal/bitops"
	"ofmtl/internal/mbt"
)

// Kbit is the unit the paper reports memory in. The paper's own numbers
// (e.g. 832 bits described as "less than 1 Kbit") are consistent with the
// SI kilobit, so 1 Kbit = 1000 bits.
const Kbit = 1000.0

// Mbit is 10^6 bits.
const Mbit = 1e6

// TrieCostModel parameterises the node format reconstruction.
type TrieCostModel struct {
	// FlagBits is the per-entry flag width (default 1 when zero).
	FlagBits int
	// MinLabelBits floors the label field width; zero means no floor.
	MinLabelBits int
}

// DefaultTrieCostModel is the configuration used by the experiments.
var DefaultTrieCostModel = TrieCostModel{FlagBits: 1}

// LevelCost is the memory cost of one trie level.
type LevelCost struct {
	Level        int
	StoredNodes  int // capacity slots (the paper's "stored nodes")
	PtrBits      int
	LabelBits    int
	FlagBits     int
	BitsPerEntry int
	Bits         int
	Kbits        float64
}

// TrieCost is the memory cost of one trie.
type TrieCost struct {
	Levels      []LevelCost
	StoredNodes int
	Bits        int
	Kbits       float64
}

// Cost computes the memory cost of a trie from its level statistics.
// labelCount sizes the label field (the number of distinct labels the trie
// must be able to emit). worstNextCapacity optionally overrides the
// capacity used to size each level's child pointer: worstNextCapacity[k]
// is the worst-case capacity of level k+1 across all tries sharing the
// design (the paper sizes pointers from the lower — worst-case — trie);
// pass nil to size pointers from this trie's own population.
func (m TrieCostModel) Cost(stats []mbt.LevelStats, labelCount int, worstNextCapacity []int) TrieCost {
	flag, labelBits := m.flagAndLabelBits(labelCount)
	out := TrieCost{Levels: make([]LevelCost, len(stats))}
	for i, ls := range stats {
		ptrBits := 0
		if i < len(stats)-1 {
			next := stats[i+1].CapacitySlots
			if worstNextCapacity != nil && i < len(worstNextCapacity) && worstNextCapacity[i] > next {
				next = worstNextCapacity[i]
			}
			ptrBits = bitops.Log2Ceil(next)
		}
		entry := flag + labelBits + ptrBits
		bits := ls.CapacitySlots * entry
		out.Levels[i] = LevelCost{
			Level:        ls.Level,
			StoredNodes:  ls.CapacitySlots,
			PtrBits:      ptrBits,
			LabelBits:    labelBits,
			FlagBits:     flag,
			BitsPerEntry: entry,
			Bits:         bits,
			Kbits:        float64(bits) / Kbit,
		}
		out.StoredNodes += ls.CapacitySlots
		out.Bits += bits
	}
	out.Kbits = float64(out.Bits) / Kbit
	return out
}

// EntryBits is the width of one trie entry as Cost models it: the flag,
// a label sized for labelCount labels and a child pointer sized for
// nextCapacity slots of the next level (0 at the leaf level). It is the
// allocation-free form the runtime states a live trie's memory with.
func (m TrieCostModel) EntryBits(labelCount, nextCapacity int) int {
	flag, labelBits := m.flagAndLabelBits(labelCount)
	return flag + labelBits + bitops.Log2Ceil(nextCapacity)
}

// flagAndLabelBits returns the flag width and the label width for
// labelCount labels.
func (m TrieCostModel) flagAndLabelBits(labelCount int) (flag, labelBits int) {
	flag = m.FlagBits
	if flag == 0 {
		flag = 1
	}
	return flag, max(bitops.Log2Ceil(labelCount), m.MinLabelBits)
}

// LUTCost is the memory cost of a hash-based exact-match LUT.
type LUTCost struct {
	Entries      int
	Buckets      int
	Ways         int
	BitsPerEntry int
	Bits         int
	Kbits        float64
}

// LUTCostOf computes the cost of an exact-match LUT storing `entries`
// unique keys of keyBits width with labelBits-wide labels, provisioned as
// buckets×ways slots of (valid + key + label) bits.
func LUTCostOf(entries, keyBits, labelCount, buckets, ways int) LUTCost {
	labelBits := bitops.Log2Ceil(labelCount)
	entryBits := 1 + keyBits + labelBits
	slots := buckets * ways
	if slots < entries {
		slots = entries
	}
	bits := slots * entryBits
	return LUTCost{
		Entries:      entries,
		Buckets:      buckets,
		Ways:         ways,
		BitsPerEntry: entryBits,
		Bits:         bits,
		Kbits:        float64(bits) / Kbit,
	}
}

// TableCost is the cost of a flat table (action tables, index-calculation
// crossproduct tables).
type TableCost struct {
	Entries      int
	BitsPerEntry int
	Bits         int
	Kbits        float64
}

// ActionEntryBits is the modelled width of one action-table row: a 4-bit
// instruction opcode, an 8-bit goto-table id, a 16-bit output port and a
// 4-bit action opcode (Section IV.C lists Goto-Table and Write-action as
// the required instructions).
const ActionEntryBits = 4 + 8 + 16 + 4

// M20KBits is the capacity of one Stratix V M20K embedded memory block.
const M20KBits = 20480

// m20kShapes lists the supported depth×width configurations of an M20K
// block (Stratix V device handbook).
var m20kShapes = [][2]int{
	{512, 40}, {1024, 20}, {2048, 10}, {4096, 5}, {8192, 2}, {16384, 1},
}

// M20KBlocks returns the number of M20K blocks required for a memory of
// the given depth and word width, choosing the block shape that minimises
// the count (the synthesiser's behaviour for simple dual-port RAMs).
func M20KBlocks(depth, width int) int {
	if depth <= 0 || width <= 0 {
		return 0
	}
	best := -1
	for _, shape := range m20kShapes {
		d, w := shape[0], shape[1]
		n := ceilDiv(depth, d) * ceilDiv(width, w)
		if best < 0 || n < best {
			best = n
		}
	}
	return best
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Component is one named memory in a system report.
type Component struct {
	Name   string
	Depth  int
	Width  int
	Bits   int
	Blocks int
}

// SystemReport aggregates the memories of a synthesised design, the
// quantity behind the paper's "5 Mb of total memory" headline.
type SystemReport struct {
	Components []Component
	TotalBits  int
	Blocks     int
}

// Add appends a memory of the given depth and word width.
func (r *SystemReport) Add(name string, depth, width int) {
	c := Component{
		Name:   name,
		Depth:  depth,
		Width:  width,
		Bits:   depth * width,
		Blocks: M20KBlocks(depth, width),
	}
	r.Components = append(r.Components, c)
	r.TotalBits += c.Bits
	r.Blocks += c.Blocks
}

// AddBits appends a memory known only by total bit count, modelled as a
// single-bit-wide deep memory (a conservative block estimate).
func (r *SystemReport) AddBits(name string, bits int) {
	if bits <= 0 {
		return
	}
	r.Add(name, bits, 1)
}

// TotalKbits returns the total in Kbit.
func (r *SystemReport) TotalKbits() float64 { return float64(r.TotalBits) / Kbit }

// TotalMbits returns the total in Mbit.
func (r *SystemReport) TotalMbits() float64 { return float64(r.TotalBits) / Mbit }

// String summarises the report.
func (r *SystemReport) String() string {
	return fmt.Sprintf("%d components, %.2f Mbit, %d M20K blocks",
		len(r.Components), r.TotalMbits(), r.Blocks)
}
