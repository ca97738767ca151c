package openflow

import (
	"strings"
	"testing"

	"ofmtl/internal/bitops"
)

func TestActionTypeStrings(t *testing.T) {
	names := map[ActionType]string{
		ActionOutput: "output", ActionDrop: "drop", ActionSetField: "set-field",
		ActionPushVLAN: "push-vlan", ActionPopVLAN: "pop-vlan",
		ActionSetQueue: "set-queue", ActionGroup: "group",
		ActionType(0): "unknown",
	}
	for typ, want := range names {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", typ, got, want)
		}
	}
	// Action renderings with operands.
	if got := SetField(FieldVLANID, 7).String(); !strings.Contains(got, "set-field") {
		t.Errorf("SetField render = %q", got)
	}
	if got := (Action{Type: ActionSetQueue, Port: 3}).String(); got != "set-queue:3" {
		t.Errorf("set-queue render = %q", got)
	}
	if got := (Action{Type: ActionGroup, Port: 5}).String(); got != "group:5" {
		t.Errorf("group render = %q", got)
	}
	if got := (Action{Type: ActionPopVLAN}).String(); got != "pop-vlan" {
		t.Errorf("pop-vlan render = %q", got)
	}
}

func TestInstructionTypeStrings(t *testing.T) {
	names := map[InstructionType]string{
		InstrGotoTable: "goto-table", InstrWriteActions: "write-actions",
		InstrApplyActions: "apply-actions", InstrClearActions: "clear-actions",
		InstrWriteMetadata: "write-metadata", InstructionType(0): "unknown",
	}
	for typ, want := range names {
		if got := typ.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", typ, got, want)
		}
	}
	if got := ApplyActions(Drop()).String(); !strings.Contains(got, "apply-actions") {
		t.Errorf("apply render = %q", got)
	}
	if got := (Instruction{Type: InstrClearActions}).String(); got != "clear-actions" {
		t.Errorf("clear render = %q", got)
	}
}

func TestMatchKindStrings(t *testing.T) {
	names := map[MatchKind]string{
		MatchExact: "exact", MatchPrefix: "prefix", MatchRange: "range",
		MatchAny: "any", MatchKind(0): "unknown",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
	// The unknown-kind match renders with a marker.
	m := Match{Field: FieldVLANID, Kind: MatchKind(42)}
	if got := m.String(); !strings.Contains(got, "?") {
		t.Errorf("unknown-kind render = %q", got)
	}
}

func TestHeaderString(t *testing.T) {
	h := &Header{
		InPort: 3, EthSrc: 0x1, EthDst: 0x2, VLANID: 10,
		IPv4Src: 0x0A000001, IPv4Dst: 0x0A000002,
		SrcPort: 1000, DstPort: 80,
	}
	s := h.String()
	for _, frag := range []string{"in_port=3", "vlan=10", "10.0.0.1", "1000->80"} {
		if !strings.Contains(s, frag) {
			t.Errorf("header render %q missing %q", s, frag)
		}
	}
}

func TestFormatHelpers(t *testing.T) {
	if got := FormatIPv4(0xC0A80101); got != "192.168.1.1" {
		t.Errorf("FormatIPv4 = %q", got)
	}
}

func TestExact128AndMethod(t *testing.T) {
	m := Exact128(FieldIPv6Dst, bitops.U128{Hi: 1, Lo: 2})
	if m.Kind != MatchExact || m.Value.Hi != 1 {
		t.Errorf("Exact128 = %+v", m)
	}
	if FieldIPv6Dst.Method() != LongestPrefixMatch {
		t.Errorf("IPv6 method = %v", FieldIPv6Dst.Method())
	}
	if FieldVLANID.Method() != ExactMatch {
		t.Errorf("VLAN method = %v", FieldVLANID.Method())
	}
	if FieldVLANID.Bits() != 13 {
		t.Errorf("VLAN bits = %d", FieldVLANID.Bits())
	}
}
