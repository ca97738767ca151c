package main

import (
	"bytes"
	"strings"
	"testing"

	"ofmtl/internal/core"
	"ofmtl/internal/filterset"
	"ofmtl/internal/flowtext"
	"ofmtl/internal/ofproto"
	"ofmtl/internal/openflow"
	"ofmtl/internal/traffic"
)

func TestGenerateAllApps(t *testing.T) {
	for _, app := range []string{"mac", "route", "acl", "arp", "lpm"} {
		var buf bytes.Buffer
		if err := generate(&buf, app, "bbrb", 50, filterset.DefaultSeed); err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		fms, err := flowtext.Read(&buf)
		if err != nil {
			t.Fatalf("%s: the rule set does not read back: %v", app, err)
		}
		if len(fms) == 0 {
			t.Errorf("%s: empty rule set", app)
		}
	}
	var buf bytes.Buffer
	if err := generate(&buf, "bogus", "bbrb", 10, 1); err == nil {
		t.Error("unknown app should error")
	}
	if err := generate(&buf, "mac", "unknown-filter", 10, 1); err == nil {
		t.Error("unknown filter name should error")
	}
}

// TestGeneratedMACOutputParses: a MAC rule set reads back through
// flowtext as adds, one VLAN entry per unique VLAN on table 0 and then
// one entry per rule on table 1, as Table III counts them.
func TestGeneratedMACOutputParses(t *testing.T) {
	var buf bytes.Buffer
	if err := generate(&buf, "mac", "bbrb", 0, filterset.DefaultSeed); err != nil {
		t.Fatal(err)
	}
	fms, err := flowtext.Read(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	perTable := map[openflow.TableID]int{}
	for i, fm := range fms {
		if fm.Op != ofproto.FlowAdd {
			t.Fatalf("command %d is %v, want an add", i, fm.Op)
		}
		if i > 0 && fm.Table < fms[i-1].Table {
			t.Fatalf("command %d: table %d after table %d, want the VLAN entries first", i, fm.Table, fms[i-1].Table)
		}
		perTable[fm.Table]++
	}
	target, _ := filterset.MACTargetFor("bbrb")
	if perTable[0] != target.VLAN || perTable[1] != target.Rules || len(perTable) != 2 {
		t.Errorf("per-table adds %v, want %d on table 0 and %d on table 1", perTable, target.VLAN, target.Rules)
	}
}

func TestGenerateTraceRoundTrips(t *testing.T) {
	for _, app := range []string{"mac", "route", "acl", "lpm"} {
		var buf bytes.Buffer
		if err := generateTrace(&buf, app, "bbrb", 50, 200, 32, 0.9, 1.1, filterset.DefaultSeed); err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		hs, err := traffic.ReadTrace(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("%s: parsing emitted trace: %v", app, err)
		}
		if len(hs) != 200 {
			t.Errorf("%s: trace has %d packets, want 200", app, len(hs))
		}
	}
	var buf bytes.Buffer
	if err := generateTrace(&buf, "arp", "bbrb", 50, 10, 8, 0.9, 0, 1); err == nil {
		t.Error("trace for unsupported app should error")
	}
}

func TestGenerateTraceZipfSkews(t *testing.T) {
	var buf bytes.Buffer
	if err := generateTrace(&buf, "mac", "bbrb", 0, 4000, 64, 1.0, 1.1, filterset.DefaultSeed); err != nil {
		t.Fatal(err)
	}
	hs, err := traffic.ReadTrace(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[[2]uint64]int{}
	max := 0
	for _, h := range hs {
		k := [2]uint64{uint64(h.VLANID)<<48 | h.EthSrc, h.EthDst}
		counts[k]++
		if counts[k] > max {
			max = counts[k]
		}
	}
	if len(counts) > 64 {
		t.Errorf("skewed trace has %d distinct flows, want <= population of 64", len(counts))
	}
	if max < 4000/64*5 {
		t.Errorf("hottest flow carries %d packets, want Zipf concentration", max)
	}
	// Uniform mode draws every packet independently: far more flows.
	buf.Reset()
	if err := generateTrace(&buf, "mac", "bbrb", 0, 4000, 64, 1.0, 0, filterset.DefaultSeed); err != nil {
		t.Fatal(err)
	}
	hs, err = traffic.ReadTrace(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	uniform := map[[2]uint64]int{}
	for _, h := range hs {
		uniform[[2]uint64{uint64(h.VLANID)<<48 | h.EthSrc, h.EthDst}]++
	}
	if len(uniform) <= len(counts) {
		t.Errorf("uniform trace has %d flows, skewed %d; expected many more", len(uniform), len(counts))
	}
}

// TestGenerateChurn: the churn workload parses back through flowtext,
// contains all four command kinds given enough steps, and replays cleanly
// against a pipeline as batched transactions.
func TestGenerateChurn(t *testing.T) {
	var buf bytes.Buffer
	if err := generateChurn(&buf, "acl", "churn", 64, 600, filterset.DefaultSeed, "", 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	fms, err := flowtext.Read(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(fms) != 600 {
		t.Fatalf("churn emitted %d commands, want 600", len(fms))
	}
	ops := map[ofproto.FlowModOp]int{}
	for i := range fms {
		ops[fms[i].Op]++
	}
	if ops[ofproto.FlowAdd] == 0 || ops[ofproto.FlowModify] == 0 || ops[ofproto.FlowDeleteStrict] == 0 {
		t.Fatalf("churn op mix incomplete: %v", ops)
	}

	// The workload must replay without errors as batched transactions.
	p := core.NewPipeline()
	if _, err := p.AddTable(core.TableConfig{
		ID: 0,
		Fields: []openflow.FieldID{
			openflow.FieldIPv4Src, openflow.FieldIPv4Dst,
			openflow.FieldSrcPort, openflow.FieldDstPort, openflow.FieldIPProto,
		},
	}); err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(fms); off += 128 {
		end := off + 128
		if end > len(fms) {
			end = len(fms)
		}
		tx := p.Begin()
		for i := off; i < end; i++ {
			op := core.CmdAdd
			switch fms[i].Op {
			case ofproto.FlowModify:
				op = core.CmdModify
			case ofproto.FlowDelete:
				op = core.CmdDelete
			case ofproto.FlowDeleteStrict:
				op = core.CmdDeleteStrict
			}
			tx.FlowMod(core.FlowCmd{Op: op, Table: fms[i].Table, CookieMask: fms[i].CookieMask, Entry: fms[i].Entry})
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatalf("replaying churn batch at %d: %v", off, err)
		}
	}

	// Determinism: the same seed yields the same workload.
	var buf2 bytes.Buffer
	if err := generateChurn(&buf2, "acl", "churn", 64, 600, filterset.DefaultSeed, "", 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("churn workload not deterministic for a fixed seed")
	}

	// mac and route apps emit their first-table preambles.
	var macBuf bytes.Buffer
	if err := generateChurn(&macBuf, "mac", "bbrb", 0, 200, filterset.DefaultSeed, "", 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	macFMs, err := flowtext.Read(strings.NewReader(macBuf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(macFMs) != 200 || macFMs[0].Table != 0 {
		t.Fatalf("mac churn: %d commands, first table %d", len(macFMs), macFMs[0].Table)
	}
	if err := generateChurn(&bytes.Buffer{}, "bogus", "x", 0, 10, 1, "", 0, 0, 0); err == nil {
		t.Error("unknown churn app should error")
	}
}

// TestGenerateChurnDIR24Shape: a dir24 pin is accepted for the lpm
// app's single-prefix-field table and rejected at generation time for
// every other app's shape — a workload no switch could run must not be
// writable in the first place.
func TestGenerateChurnDIR24Shape(t *testing.T) {
	var buf bytes.Buffer
	if err := generateChurn(&buf, "lpm", "feed", 64, 400, filterset.DefaultSeed, "dir24", 0, 0, 0); err != nil {
		t.Fatalf("lpm churn with dir24 pin: %v", err)
	}
	parsed, err := flowtext.ReadFile(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.TableOptions) != 1 || parsed.TableOptions[0].Backend != "dir24" {
		t.Fatalf("table options = %+v, want one dir24 pin", parsed.TableOptions)
	}
	if len(parsed.Commands) != 400 {
		t.Errorf("commands = %d, want 400", len(parsed.Commands))
	}

	// The lpm workload replays cleanly against a dir24-backed pipeline.
	p := core.NewPipeline()
	if _, err := p.AddTable(core.TableConfig{
		ID:      0,
		Fields:  []openflow.FieldID{openflow.FieldIPv4Dst},
		Backend: core.BackendDIR24,
	}); err != nil {
		t.Fatal(err)
	}
	tx := p.Begin()
	for i := range parsed.Commands {
		fm := &parsed.Commands[i]
		op := core.CmdAdd
		switch fm.Op {
		case ofproto.FlowModify:
			op = core.CmdModify
		case ofproto.FlowDelete:
			op = core.CmdDelete
		case ofproto.FlowDeleteStrict:
			op = core.CmdDeleteStrict
		}
		tx.FlowMod(core.FlowCmd{Op: op, Table: fm.Table, CookieMask: fm.CookieMask, Entry: fm.Entry})
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatalf("replaying lpm churn on dir24: %v", err)
	}

	for _, app := range []string{"mac", "route", "acl"} {
		err := generateChurn(&bytes.Buffer{}, app, "bbrb", 64, 100, filterset.DefaultSeed, "dir24", 0, 0, 0)
		if err == nil || !strings.Contains(err.Error(), "longest-prefix-match") {
			t.Errorf("%s churn with dir24 pin: err = %v, want prefix-shape rejection", app, err)
		}
	}
}

// TestGenerateChurnBackendPreamble: -backend pins every touched table
// through a table-options preamble that round-trips through flowtext.
func TestGenerateChurnBackendPreamble(t *testing.T) {
	var buf bytes.Buffer
	if err := generateChurn(&buf, "mac", "bbrb", 0, 200, filterset.DefaultSeed, "tss", 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	parsed, err := flowtext.ReadFile(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.TableOptions) != 2 {
		t.Fatalf("table options = %+v, want pins for tables 0 and 1", parsed.TableOptions)
	}
	for i, opt := range parsed.TableOptions {
		if int(opt.Table) != i || opt.Backend != "tss" {
			t.Errorf("option %d = %+v", i, opt)
		}
	}
	if len(parsed.Commands) != 200 {
		t.Errorf("commands = %d, want 200", len(parsed.Commands))
	}

	// -budget composes with -backend in the same pins.
	buf.Reset()
	if err := generateChurn(&buf, "mac", "bbrb", 0, 200, filterset.DefaultSeed, "tss", 4_000_000, 0, 0); err != nil {
		t.Fatal(err)
	}
	parsed, err = flowtext.ReadFile(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.TableOptions) != 2 {
		t.Fatalf("table options = %+v, want pins for tables 0 and 1", parsed.TableOptions)
	}
	for i, opt := range parsed.TableOptions {
		if opt.Backend != "tss" || opt.Budget != 4_000_000 {
			t.Errorf("option %d = %+v, want backend=tss budget=4000000", i, opt)
		}
	}

	// Without -backend there is no preamble.
	buf.Reset()
	if err := generateChurn(&buf, "mac", "bbrb", 0, 50, filterset.DefaultSeed, "", 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	parsed, err = flowtext.ReadFile(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.TableOptions) != 0 {
		t.Errorf("unexpected preamble: %+v", parsed.TableOptions)
	}
}
