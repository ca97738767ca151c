// Package baseline grades the multi-dimensional lookup algorithm
// categories the paper surveys in Table I — Trie-Geometric (HyperCuts,
// HyperSplit), Decomposition (RFC), Hashing (tuple space search) and
// Hardware (TCAM) — plus a naive linear search, on the three axes the
// table grades: memory consumption, lookup cost and update cost. The
// Table I experiment classifies the same 5-tuple rule set with every
// algorithm and reports measured numbers behind the paper's qualitative
// entries.
//
// The package implements only what the switch lacks: the reference
// linear scan, RFC and the two cutting trees. Tuple space search and
// TCAM are the switch's own tss and lineartcam backends (Runtime), so
// their rows price the structures the switch runs.
package baseline

import (
	"ofmtl/internal/core"
	"ofmtl/internal/filterset"
	"ofmtl/internal/openflow"
)

// Category is a Table I row.
type Category string

// Table I categories.
const (
	CategoryTrieGeometric Category = "Trie-Geometric"
	CategoryDecomposition Category = "Decomposition"
	CategoryHashing       Category = "Hashing-based"
	CategoryHardware      Category = "Hardware-based"
	CategoryNaive         Category = "Naive"
)

// Classifier is one multi-dimensional classification algorithm over
// 5-tuple rules. Build is called once with the full rule list; Classify
// must return the index of the highest-priority matching rule (the list is
// ordered by descending priority, so the lowest matching index wins).
type Classifier interface {
	Name() string
	Category() Category
	Build(rules []filterset.ACLRule) error
	Classify(h *openflow.Header) (int, bool)
	// MemoryBits reports the modelled memory footprint of the built
	// structure.
	MemoryBits() int
	// LookupCost reports the memory accesses performed by the most recent
	// Classify call.
	LookupCost() int
	// UpdateCost reports the modelled number of memory records that must
	// be rewritten to insert one more rule (Table I's update axis).
	UpdateCost() int
}

// Interface compliance.
var (
	_ Classifier = (*Linear)(nil)
	_ Classifier = (*Runtime)(nil)
	_ Classifier = (*RFC)(nil)
	_ Classifier = (*HyperCuts)(nil)
	_ Classifier = (*HyperSplit)(nil)
)

// All returns one instance of every implemented baseline.
func All() []Classifier {
	return []Classifier{
		NewLinear(),
		NewRuntime(core.BackendLinearTCAM),
		NewRuntime(core.BackendTSS),
		NewRFC(),
		NewHyperCuts(),
		NewHyperSplit(),
	}
}

// ruleTupleBits is the ternary width of a 5-tuple rule: 32+32 source and
// destination IPv4, 16+16 ports, 8 protocol.
const ruleTupleBits = 104

// ruleMatches reports whether rule r admits header h.
func ruleMatches(r *filterset.ACLRule, h *openflow.Header) bool {
	if r.SrcLen > 0 {
		mask := ^uint32(0) << (32 - r.SrcLen)
		if h.IPv4Src&mask != r.SrcIP&mask {
			return false
		}
	}
	if r.DstLen > 0 {
		mask := ^uint32(0) << (32 - r.DstLen)
		if h.IPv4Dst&mask != r.DstIP&mask {
			return false
		}
	}
	if h.SrcPort < r.SrcPortLo || h.SrcPort > r.SrcPortHi {
		return false
	}
	if h.DstPort < r.DstPortLo || h.DstPort > r.DstPortHi {
		return false
	}
	if !r.ProtoAny && h.IPProto != r.Proto {
		return false
	}
	return true
}
