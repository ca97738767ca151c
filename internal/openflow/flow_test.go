package openflow

import (
	"strings"
	"testing"
)

func testEntry() *FlowEntry {
	return &FlowEntry{
		Priority: 100,
		Cookie:   0xABCD,
		Matches: []Match{
			Exact(FieldVLANID, 5),
			Prefix(FieldEthDst, 0x001122334455, 48),
		},
		Instructions: []Instruction{
			GotoTable(1),
			WriteActions(Output(3), SetField(FieldVLANID, 7)),
		},
	}
}

func TestFlowEntryMatchLookup(t *testing.T) {
	e := testEntry()
	if m, ok := e.Match(FieldVLANID); !ok || m.Kind != MatchExact {
		t.Error("Match(FieldVLANID) should find the exact match")
	}
	if _, ok := e.Match(FieldIPv4Dst); ok {
		t.Error("Match on absent field should report false")
	}
}

func TestFlowEntryMatchesHeader(t *testing.T) {
	e := testEntry()
	h := &Header{VLANID: 5, EthDst: 0x001122334455}
	if !e.MatchesHeader(h) {
		t.Error("entry should match header with both fields equal")
	}
	h.VLANID = 6
	if e.MatchesHeader(h) {
		t.Error("entry should not match header with different VLAN")
	}
}

func TestFlowEntryGotoTable(t *testing.T) {
	e := testEntry()
	if tid, ok := e.GotoTable(); !ok || tid != 1 {
		t.Errorf("GotoTable = %d, %v; want 1, true", tid, ok)
	}
	e2 := &FlowEntry{Instructions: []Instruction{WriteActions(Drop())}}
	if _, ok := e2.GotoTable(); ok {
		t.Error("entry without goto should report false")
	}
}

func TestFlowEntryValidate(t *testing.T) {
	e := testEntry()
	if err := e.Validate(); err != nil {
		t.Errorf("valid entry failed validation: %v", err)
	}
	dup := &FlowEntry{Matches: []Match{Exact(FieldVLANID, 1), Exact(FieldVLANID, 2)}}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate field should fail validation")
	}
	bad := &FlowEntry{Matches: []Match{Exact(FieldVLANID, 0xFFFF)}}
	if err := bad.Validate(); err == nil {
		t.Error("over-wide value should fail validation")
	}
	badInstr := &FlowEntry{Instructions: []Instruction{{Type: InstructionType(42)}}}
	if err := badInstr.Validate(); err == nil {
		t.Error("unknown instruction should fail validation")
	}
}

func TestSpecificitySum(t *testing.T) {
	e := testEntry()
	want := e.Matches[0].Specificity() + e.Matches[1].Specificity()
	if got := e.Specificity(); got != want {
		t.Errorf("Specificity = %d, want %d", got, want)
	}
}

func TestEntryString(t *testing.T) {
	s := testEntry().String()
	for _, frag := range []string{"prio=100", "VLAN ID=0x5", "goto-table:1", "output:3"} {
		if !strings.Contains(s, frag) {
			t.Errorf("entry string %q missing %q", s, frag)
		}
	}
}

func TestActionStrings(t *testing.T) {
	if Output(ControllerPort).String() != "output:controller" {
		t.Error("controller port should render symbolically")
	}
	if Drop().String() != "drop" {
		t.Error("drop render")
	}
	if !strings.Contains(WriteMetadata(0xFF, 0xFF).String(), "write-metadata") {
		t.Error("metadata render")
	}
}
