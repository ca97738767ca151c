package openflow

import (
	"fmt"
	"strings"

	"ofmtl/internal/bitops"
)

// TableID identifies a flow table within the multiple-table pipeline.
// Tables are numbered from 0 as in the OpenFlow specification; packets
// always enter at table 0 and Goto-Table instructions may only move
// forward.
type TableID uint8

// ControllerPort is the reserved output port that delivers a packet to the
// controller (the paper's "Send to controller" miss behaviour).
const ControllerPort uint32 = 0xFFFFFFFD

// ActionType enumerates the write-action kinds supported by the pipeline.
type ActionType int

// Action kinds.
const (
	ActionOutput   ActionType = iota + 1 // forward to Port
	ActionDrop                           // discard the packet
	ActionSetField                       // rewrite a header field
	ActionPushVLAN                       // push an 802.1Q tag
	ActionPopVLAN                        // pop the outer 802.1Q tag
	ActionSetQueue                       // assign to egress queue Port
	ActionGroup                          // hand off to group Port
)

// String names the action type.
func (t ActionType) String() string {
	switch t {
	case ActionOutput:
		return "output"
	case ActionDrop:
		return "drop"
	case ActionSetField:
		return "set-field"
	case ActionPushVLAN:
		return "push-vlan"
	case ActionPopVLAN:
		return "pop-vlan"
	case ActionSetQueue:
		return "set-queue"
	case ActionGroup:
		return "group"
	default:
		return "unknown"
	}
}

// Action is one element of a write-actions or apply-actions set.
type Action struct {
	Type  ActionType
	Port  uint32      // for output / set-queue / group
	Field FieldID     // for set-field
	Value bitops.U128 // for set-field
}

// Output constructs an output action.
func Output(port uint32) Action { return Action{Type: ActionOutput, Port: port} }

// Drop constructs a drop action.
func Drop() Action { return Action{Type: ActionDrop} }

// SetField constructs a set-field action.
func SetField(f FieldID, v uint64) Action {
	return Action{Type: ActionSetField, Field: f, Value: bitops.U128From64(v)}
}

// Group constructs a group action handing the packet to group id.
func Group(id uint32) Action { return Action{Type: ActionGroup, Port: id} }

// String renders the action.
func (a Action) String() string {
	switch a.Type {
	case ActionOutput:
		if a.Port == ControllerPort {
			return "output:controller"
		}
		return fmt.Sprintf("output:%d", a.Port)
	case ActionSetField:
		return fmt.Sprintf("set-field:%s=%v", a.Field, a.Value)
	case ActionSetQueue, ActionGroup:
		return fmt.Sprintf("%s:%d", a.Type, a.Port)
	default:
		return a.Type.String()
	}
}

// InstructionType enumerates instruction kinds of the OpenFlow v1.3
// instruction set that the pipeline executes.
type InstructionType int

// Instruction kinds. GotoTable and WriteActions are the two instructions
// the paper requires for the multi-table flow entries (Section IV.C);
// ApplyActions, WriteMetadata and ClearActions complete the v1.3 set
// relevant to a lookup pipeline.
const (
	InstrGotoTable InstructionType = iota + 1
	InstrWriteActions
	InstrApplyActions
	InstrClearActions
	InstrWriteMetadata
)

// String names the instruction type.
func (t InstructionType) String() string {
	switch t {
	case InstrGotoTable:
		return "goto-table"
	case InstrWriteActions:
		return "write-actions"
	case InstrApplyActions:
		return "apply-actions"
	case InstrClearActions:
		return "clear-actions"
	case InstrWriteMetadata:
		return "write-metadata"
	default:
		return "unknown"
	}
}

// Instruction is one pipeline instruction attached to a flow entry.
type Instruction struct {
	Type         InstructionType
	Table        TableID  // for goto-table
	Actions      []Action // for write-actions / apply-actions
	Metadata     uint64   // for write-metadata
	MetadataMask uint64   // for write-metadata
}

// GotoTable constructs a goto-table instruction.
func GotoTable(t TableID) Instruction { return Instruction{Type: InstrGotoTable, Table: t} }

// WriteActions constructs a write-actions instruction.
func WriteActions(actions ...Action) Instruction {
	return Instruction{Type: InstrWriteActions, Actions: actions}
}

// ApplyActions constructs an apply-actions instruction.
func ApplyActions(actions ...Action) Instruction {
	return Instruction{Type: InstrApplyActions, Actions: actions}
}

// WriteMetadata constructs a write-metadata instruction.
func WriteMetadata(value, mask uint64) Instruction {
	return Instruction{Type: InstrWriteMetadata, Metadata: value, MetadataMask: mask}
}

// String renders the instruction.
func (in Instruction) String() string {
	switch in.Type {
	case InstrGotoTable:
		return fmt.Sprintf("goto-table:%d", in.Table)
	case InstrWriteActions, InstrApplyActions:
		parts := make([]string, len(in.Actions))
		for i, a := range in.Actions {
			parts[i] = a.String()
		}
		return fmt.Sprintf("%s(%s)", in.Type, strings.Join(parts, ","))
	case InstrWriteMetadata:
		return fmt.Sprintf("write-metadata:%#x/%#x", in.Metadata, in.MetadataMask)
	default:
		return in.Type.String()
	}
}

// FlowEntry is one row of a flow table: a conjunction of per-field matches
// with a priority and an instruction list. Fields not mentioned are
// wildcarded.
type FlowEntry struct {
	Priority     int
	Matches      []Match
	Instructions []Instruction
	Cookie       uint64 // opaque controller identifier

	// IdleTimeout and HardTimeout, in seconds, bound the flow's lifetime:
	// an idle timeout expires the flow after that many seconds without a
	// matching packet, a hard timeout after that many seconds since
	// installation regardless of traffic. Zero disables the respective
	// timeout. Timeouts are flow attributes, not identity: two entries
	// differing only in timeouts are the same flow for add/modify/delete.
	IdleTimeout uint16
	HardTimeout uint16

	// Ref is the engine-assigned lifecycle slot of the installed flow. It
	// is not part of the wire encoding and never part of flow identity;
	// controllers leave it zero. The pipeline stamps it at insert time so
	// lookup results can be attributed back to per-flow counters.
	Ref uint32
}

// Match returns the entry's constraint on field f and whether one exists.
func (e *FlowEntry) Match(f FieldID) (Match, bool) {
	for _, m := range e.Matches {
		if m.Field == f {
			return m, true
		}
	}
	return Match{}, false
}

// MatchesHeader reports whether every match in the entry admits the
// corresponding field of h.
func (e *FlowEntry) MatchesHeader(h *Header) bool {
	for _, m := range e.Matches {
		if !m.Matches(h.Get(m.Field)) {
			return false
		}
	}
	return true
}

// Specificity sums per-field specificities; the reference classifier uses
// it to order equal-priority entries the way hardware LPM/narrowest-range
// stages would.
func (e *FlowEntry) Specificity() int {
	total := 0
	for _, m := range e.Matches {
		total += m.Specificity()
	}
	return total
}

// GotoTable returns the goto-table target, if any instruction sets one.
func (e *FlowEntry) GotoTable() (TableID, bool) {
	for _, in := range e.Instructions {
		if in.Type == InstrGotoTable {
			return in.Table, true
		}
	}
	return 0, false
}

// Validate checks the entry: every match must validate, no duplicate
// fields, and instructions must be well formed.
func (e *FlowEntry) Validate() error {
	seen := make(map[FieldID]bool, len(e.Matches))
	for _, m := range e.Matches {
		if err := m.Validate(); err != nil {
			return fmt.Errorf("openflow: flow entry: %w", err)
		}
		if seen[m.Field] {
			return fmt.Errorf("openflow: flow entry constrains field %s twice", m.Field)
		}
		seen[m.Field] = true
	}
	for _, in := range e.Instructions {
		if in.Type < InstrGotoTable || in.Type > InstrWriteMetadata {
			return fmt.Errorf("openflow: flow entry has unknown instruction type %d", int(in.Type))
		}
	}
	return nil
}

// String renders the entry in rule-file syntax.
func (e *FlowEntry) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "prio=%d", e.Priority)
	if e.IdleTimeout != 0 {
		fmt.Fprintf(&b, " idle=%d", e.IdleTimeout)
	}
	if e.HardTimeout != 0 {
		fmt.Fprintf(&b, " hard=%d", e.HardTimeout)
	}
	for _, m := range e.Matches {
		b.WriteByte(' ')
		b.WriteString(m.String())
	}
	for _, in := range e.Instructions {
		b.WriteString(" -> ")
		b.WriteString(in.String())
	}
	return b.String()
}
