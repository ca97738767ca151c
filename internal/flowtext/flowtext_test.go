package flowtext

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"ofmtl/internal/bitops"
	"ofmtl/internal/ofproto"
	"ofmtl/internal/openflow"
)

func sampleCommands() []ofproto.FlowMod {
	return []ofproto.FlowMod{
		{Op: ofproto.FlowAdd, Table: 0, Entry: openflow.FlowEntry{
			Priority:     1,
			Matches:      []openflow.Match{openflow.Exact(openflow.FieldVLANID, 10)},
			Instructions: []openflow.Instruction{openflow.WriteMetadata(10, ^uint64(0)), openflow.GotoTable(1)},
		}},
		{Op: ofproto.FlowAdd, Table: 1, Entry: openflow.FlowEntry{
			Priority: 1,
			Cookie:   0x10,
			Matches: []openflow.Match{
				openflow.Exact(openflow.FieldMetadata, 10),
				openflow.Exact(openflow.FieldEthDst, 0x00AABB010001),
			},
			Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(3))},
		}},
		{Op: ofproto.FlowAdd, Table: 3, Entry: openflow.FlowEntry{
			Priority: 9,
			Matches: []openflow.Match{
				openflow.Prefix(openflow.FieldIPv4Dst, 0x0A000000, 8),
				openflow.Range(openflow.FieldDstPort, 80, 443),
				openflow.Exact(openflow.FieldIPProto, 6),
			},
			Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Drop())},
		}},
		{Op: ofproto.FlowAdd, Table: 0, Entry: openflow.FlowEntry{
			Priority:     1,
			Matches:      []openflow.Match{openflow.Exact(openflow.FieldARPTPA, 0xC0A80001)},
			Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(4))},
		}},
		{Op: ofproto.FlowModify, Table: 1, Entry: openflow.FlowEntry{
			Matches:      []openflow.Match{openflow.Exact(openflow.FieldEthDst, 0x00AABB010001)},
			Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(9))},
		}},
		{Op: ofproto.FlowDelete, Table: 1, CookieMask: 0xFF, Entry: openflow.FlowEntry{
			Cookie: 0x10,
		}},
		{Op: ofproto.FlowDeleteStrict, Table: 0, Entry: openflow.FlowEntry{
			Priority: 1,
			Matches:  []openflow.Match{openflow.Exact(openflow.FieldVLANID, 10)},
		}},
	}
}

// TestRoundTrip: write → read must reproduce the commands exactly.
func TestRoundTrip(t *testing.T) {
	fms := sampleCommands()
	var buf bytes.Buffer
	if err := Write(&buf, fms); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fms, got) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, fms)
	}
}

// TestParseExamples pins the documented grammar.
func TestParseExamples(t *testing.T) {
	fm, err := ParseCommand("add 1 prio=5 cookie=0x7/0xff meta=10 ethdst=00:aa:bb:01:00:01 sport=1000-2000 out=3")
	if err != nil {
		t.Fatal(err)
	}
	if fm.Op != ofproto.FlowAdd || fm.Table != 1 || fm.Entry.Priority != 5 ||
		fm.Entry.Cookie != 7 || fm.CookieMask != 0xFF {
		t.Fatalf("parsed header wrong: %+v", fm)
	}
	if len(fm.Entry.Matches) != 3 || len(fm.Entry.Instructions) != 1 {
		t.Fatalf("parsed body wrong: %+v", fm.Entry)
	}
	fm, err = ParseCommand("delete 2 ipv4dst=10.1.0.0/16")
	if err != nil {
		t.Fatal(err)
	}
	want := openflow.Prefix(openflow.FieldIPv4Dst, 0x0A010000, 16)
	if len(fm.Entry.Matches) != 1 || fm.Entry.Matches[0] != want {
		t.Fatalf("prefix match = %+v", fm.Entry.Matches)
	}
	fm, err = ParseCommand("add 0 prio=1 vlan=7 out=controller")
	if err != nil {
		t.Fatal(err)
	}
	if fm.Entry.Instructions[0].Actions[0].Port != openflow.ControllerPort {
		t.Fatal("out=controller not mapped to the controller port")
	}
}

// TestParseErrors: malformed lines surface errors with context.
func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"add",
		"frobnicate 0",
		"add x",
		"add 0 prio=abc",
		"add 0 vlan=",
		"add 0 ethdst=zz:zz:zz:zz:zz:zz",
		"add 0 ipv4dst=10.0.0/8",
		"add 0 ipv4dst=10.0.0.0/99",
		"add 0 arptpa=10.0.0.0/8",
		"add 0 arptpa=10.0.0",
		"add 0 sport=1-2-3",
		"add 0 drop=1",
		"add 0 nonsense=5",
	}
	for _, line := range bad {
		if _, err := ParseCommand(line); err == nil {
			t.Errorf("ParseCommand(%q) succeeded", line)
		}
	}
	if _, err := Read(strings.NewReader("add 0 vlan=1 out=2\nbogus line\n")); err == nil {
		t.Error("Read with a bogus line succeeded")
	}
}

// TestCommentsAndBlanks are ignored by Read.
func TestCommentsAndBlanks(t *testing.T) {
	fms, err := Read(strings.NewReader("# header\n\n  \nadd 0 prio=1 vlan=1 out=2\n# trailer\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(fms) != 1 {
		t.Fatalf("got %d commands, want 1", len(fms))
	}
}

// TestFormatUnrepresentable: commands outside the text grammar error
// instead of serialising lossily.
func TestFormatUnrepresentable(t *testing.T) {
	fm := ofproto.FlowMod{Op: ofproto.FlowAdd, Table: 0, Entry: openflow.FlowEntry{
		Matches: []openflow.Match{openflow.Exact128(openflow.FieldIPv6Dst, bitops.U128{Hi: 1, Lo: 2})},
	}}
	if _, err := FormatCommand(&fm); err == nil {
		t.Error("IPv6 match serialised but the grammar has no key for it")
	}
	fm = ofproto.FlowMod{Op: ofproto.FlowAdd, Table: 0, Entry: openflow.FlowEntry{
		Instructions: []openflow.Instruction{openflow.ApplyActions(openflow.Output(1))},
	}}
	if _, err := FormatCommand(&fm); err == nil {
		t.Error("apply-actions serialised but the grammar has no token for it")
	}
}

// TestTableOptionsRoundTrip: a workload with a table-options preamble
// writes and re-reads losslessly, and the legacy Read still returns the
// commands alone.
func TestTableOptionsRoundTrip(t *testing.T) {
	in := &File{
		TableOptions: []TableOption{
			{Table: 0, Backend: "tss"},
			{Table: 1, Budget: 4_000_000},
			{Table: 3, Backend: "lineartcam", Budget: 1 << 40},
		},
		Commands: []ofproto.FlowMod{
			{Op: ofproto.FlowAdd, Table: 0, Entry: openflow.FlowEntry{
				Priority:     1,
				Matches:      []openflow.Match{openflow.Exact(openflow.FieldVLANID, 9)},
				Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(2))},
			}},
		},
	}
	var buf strings.Builder
	if err := WriteFile(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFile(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.TableOptions, in.TableOptions) {
		t.Errorf("table options: got %+v, want %+v", out.TableOptions, in.TableOptions)
	}
	if len(out.Commands) != 1 || out.Commands[0].Table != 0 {
		t.Errorf("commands: %+v", out.Commands)
	}
	fms, err := Read(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(fms) != 1 {
		t.Errorf("legacy Read returned %d commands, want 1", len(fms))
	}
}

// TestTableOptionsRejectsMalformed covers the directive's error paths.
func TestTableOptionsRejectsMalformed(t *testing.T) {
	for _, line := range []string{
		"table-options",
		"table-options 0",
		"table-options abc backend=tss",
		"table-options 0 backend=",
		"table-options 0 frontend=tss",
		"table-options 0 budget=",
		"table-options 0 budget=0",
		"table-options 0 budget=lots",
	} {
		if _, err := ReadFile(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("parse of %q succeeded", line)
		}
	}
	if err := WriteFile(&strings.Builder{}, &File{TableOptions: []TableOption{{Table: 1}}}); err == nil {
		t.Error("WriteFile accepted a table option pinning neither backend nor budget")
	}
}
