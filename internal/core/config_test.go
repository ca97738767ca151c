package core

import (
	"encoding/json"
	"strings"
	"testing"

	"ofmtl/internal/openflow"
)

func TestParsePipelineConfig(t *testing.T) {
	doc := `{
		"name": "test",
		"tables": [
			{"id": 0, "fields": ["vlan-id"], "miss": "goto:2"},
			{"id": 1, "fields": ["metadata", "eth-dst"]},
			{"id": 2, "fields": ["in-port"], "miss": "drop"},
			{"id": 3, "fields": ["metadata", "ipv4-dst"], "miss": "controller"}
		]
	}`
	cfg, err := ParsePipelineConfig(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	p, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.Tables()); got != 4 {
		t.Fatalf("tables = %d", got)
	}
	t0, _ := p.Table(0)
	if t0.Miss().Kind != MissGoto || t0.Miss().Table != 2 {
		t.Errorf("table 0 miss = %+v", t0.Miss())
	}
	t2, _ := p.Table(2)
	if t2.Miss().Kind != MissDrop {
		t.Errorf("table 2 miss = %+v", t2.Miss())
	}
	t3, _ := p.Table(3)
	if t3.Miss().Kind != MissController {
		t.Errorf("table 3 miss = %+v", t3.Miss())
	}
	// The built pipeline actually classifies.
	if _, err := p.Begin().Add(0, &openflow.FlowEntry{
		Priority: 1,
		Matches:  []openflow.Match{openflow.Exact(openflow.FieldVLANID, 7)},
		Instructions: []openflow.Instruction{
			openflow.WriteMetadata(7, ^uint64(0)),
			openflow.GotoTable(1),
		},
	}).Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestParsePipelineConfigErrors(t *testing.T) {
	cases := map[string]string{
		"empty tables":  `{"name": "x", "tables": []}`,
		"unknown field": `{"tables": [{"id": 0, "fields": ["bogus"]}]}`,
		"bad miss":      `{"tables": [{"id": 0, "fields": ["vlan-id"], "miss": "explode"}]}`,
		"bad goto":      `{"tables": [{"id": 0, "fields": ["vlan-id"], "miss": "goto:x"}]}`,
		"backward goto": `{"tables": [{"id": 3, "fields": ["vlan-id"], "miss": "goto:1"}]}`,
		"unknown key":   `{"tables": [{"id": 0, "fields": ["vlan-id"], "surprise": 1}]}`,
		"not json":      `whatever`,
		"dup id":        `{"tables": [{"id": 0, "fields": ["vlan-id"]}, {"id": 0, "fields": ["in-port"]}]}`,
	}
	for name, doc := range cases {
		cfg, err := ParsePipelineConfig(strings.NewReader(doc))
		if err != nil {
			continue // parse-time rejection is fine
		}
		if _, err := cfg.Build(); err == nil {
			t.Errorf("%s: config should be rejected", name)
		}
	}
}

func TestPrototypeConfigRoundTrip(t *testing.T) {
	cfg := PrototypeConfig()
	// The template serialises, re-parses and builds the paper's 4-table
	// layout.
	raw, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParsePipelineConfig(strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	p, err := again.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.Tables()); got != 4 {
		t.Fatalf("prototype tables = %d", got)
	}
	// It accepts the builder-generated flows: install one MAC rule pair.
	if _, err := p.Begin().Add(0, &openflow.FlowEntry{
		Priority: 1,
		Matches:  []openflow.Match{openflow.Exact(openflow.FieldVLANID, 9)},
		Instructions: []openflow.Instruction{
			openflow.WriteMetadata(9, ^uint64(0)),
			openflow.GotoTable(1),
		},
	}).Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Begin().Add(1, &openflow.FlowEntry{
		Priority: 1,
		Matches: []openflow.Match{
			openflow.Exact(openflow.FieldMetadata, 9),
			openflow.Exact(openflow.FieldEthDst, 0xDEAD),
		},
		Instructions: []openflow.Instruction{
			openflow.WriteActions(openflow.Output(4)),
		},
	}).Commit(); err != nil {
		t.Fatal(err)
	}
	res := p.Execute(&openflow.Header{VLANID: 9, EthDst: 0xDEAD})
	if !res.Matched || len(res.Outputs) != 1 || res.Outputs[0] != 4 {
		t.Errorf("config-built pipeline: %+v", res)
	}
}

func TestFieldNameRegistry(t *testing.T) {
	if f, ok := FieldByName("ipv6-dst"); !ok || f != openflow.FieldIPv6Dst {
		t.Error("ipv6-dst should resolve")
	}
	if _, ok := FieldByName("nope"); ok {
		t.Error("unknown name should not resolve")
	}
	names := FieldNames()
	if len(names) < 15 {
		t.Errorf("only %d field names registered", len(names))
	}
	for _, n := range names {
		if _, ok := FieldByName(n); !ok {
			t.Errorf("registered name %q does not resolve", n)
		}
	}
}
