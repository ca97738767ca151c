package core

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"ofmtl/internal/openflow"
)

// Declarative pipeline configuration, in the spirit of the ONF Table Type
// Patterns the paper cites (its reference [3], "The Benefits of Multiple
// Flow Tables and TTPs"): a JSON document describes the table layout — the
// fields each table searches and its miss behaviour — and the switch
// instantiates the matching lookup structures.
//
// Example:
//
//	{
//	  "name": "mac-and-routing",
//	  "tables": [
//	    {"id": 0, "fields": ["vlan-id"], "miss": "goto:2"},
//	    {"id": 1, "fields": ["metadata", "eth-dst"]},
//	    {"id": 2, "fields": ["in-port"]},
//	    {"id": 3, "fields": ["metadata", "ipv4-dst"]}
//	  ]
//	}

// PipelineConfig is the top-level configuration document. Backend, when
// set, is the default lookup scheme for tables that do not choose one
// ("mbt" | "tss" | "lineartcam" | "dir24"; a dir24 default applies only
// to tables shaped as a single 32-bit longest-prefix-match field, other
// tables fall back to mbt). Budget, when set, is the process-wide
// memory budget in modelled bits: commits growing the total accounting
// past it are rejected, and the cache tiers degrade as it is
// approached (see budget.go).
type PipelineConfig struct {
	Name    string            `json:"name"`
	Backend string            `json:"backend,omitempty"`
	Budget  uint64            `json:"budget,omitempty"`
	Tables  []TableConfigJSON `json:"tables"`
}

// TableConfigJSON is one table description. Backend optionally pins the
// table's lookup scheme, overriding the document and process defaults;
// Budget optionally caps the table's memory in modelled bits.
type TableConfigJSON struct {
	ID      uint8    `json:"id"`
	Fields  []string `json:"fields"`
	Miss    string   `json:"miss,omitempty"`    // "controller" (default), "drop", "goto:<id>"
	Backend string   `json:"backend,omitempty"` // "mbt" (default) | "tss" | "lineartcam" | "dir24" | "auto" (an explicit dir24 pin requires a single-prefix-field table; "auto" hands scheme choice to the advisor)
	Budget  uint64   `json:"budget,omitempty"`  // per-table memory budget, bits (0 = unlimited)
}

// fieldNames maps configuration names to field identifiers. Names follow
// the OXM convention (lower-kebab).
var fieldNames = map[string]openflow.FieldID{
	"in-port":    openflow.FieldInPort,
	"eth-src":    openflow.FieldEthSrc,
	"eth-dst":    openflow.FieldEthDst,
	"eth-type":   openflow.FieldEthType,
	"vlan-id":    openflow.FieldVLANID,
	"vlan-pcp":   openflow.FieldVLANPriority,
	"mpls-label": openflow.FieldMPLSLabel,
	"ipv4-src":   openflow.FieldIPv4Src,
	"ipv4-dst":   openflow.FieldIPv4Dst,
	"ipv6-src":   openflow.FieldIPv6Src,
	"ipv6-dst":   openflow.FieldIPv6Dst,
	"ip-proto":   openflow.FieldIPProto,
	"ip-tos":     openflow.FieldIPToS,
	"src-port":   openflow.FieldSrcPort,
	"dst-port":   openflow.FieldDstPort,
	"arp-op":     openflow.FieldARPOp,
	"arp-spa":    openflow.FieldARPSPA,
	"arp-tpa":    openflow.FieldARPTPA,
	"metadata":   openflow.FieldMetadata,
}

// FieldByName resolves a configuration field name.
func FieldByName(name string) (openflow.FieldID, bool) {
	f, ok := fieldNames[name]
	return f, ok
}

// FieldNames returns the recognised configuration names (for error
// messages and documentation).
func FieldNames() []string {
	out := make([]string, 0, len(fieldNames))
	for n := range fieldNames {
		out = append(out, n)
	}
	return out
}

// ParsePipelineConfig reads a JSON pipeline description.
func ParsePipelineConfig(r io.Reader) (*PipelineConfig, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var cfg PipelineConfig
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("core: parsing pipeline config: %w", err)
	}
	if len(cfg.Tables) == 0 {
		return nil, fmt.Errorf("core: pipeline config %q has no tables", cfg.Name)
	}
	return &cfg, nil
}

// parseMiss interprets a miss policy string.
func parseMiss(s string) (MissPolicy, error) {
	switch {
	case s == "" || s == "controller":
		return MissPolicy{Kind: MissController}, nil
	case s == "drop":
		return MissPolicy{Kind: MissDrop}, nil
	case strings.HasPrefix(s, "goto:"):
		id, err := strconv.ParseUint(strings.TrimPrefix(s, "goto:"), 10, 8)
		if err != nil {
			return MissPolicy{}, fmt.Errorf("core: bad goto target in miss policy %q", s)
		}
		return MissPolicy{Kind: MissGoto, Table: openflow.TableID(id)}, nil
	default:
		return MissPolicy{}, fmt.Errorf("core: unknown miss policy %q (want controller | drop | goto:<id>)", s)
	}
}

// Build instantiates the configured pipeline.
func (cfg *PipelineConfig) Build() (*Pipeline, error) {
	return cfg.BuildWithDefault("")
}

// BuildWithDefault instantiates the configured pipeline with a fallback
// lookup backend (e.g. a -backend flag): per-table "backend" properties
// win, then the document's "backend", then the given default, then mbt.
func (cfg *PipelineConfig) BuildWithDefault(backend string) (*Pipeline, error) {
	p := NewPipeline()
	def := cfg.Backend
	if def == "" {
		def = backend
	}
	if def != "" {
		if err := p.SetDefaultBackend(def); err != nil {
			return nil, err
		}
	}
	for i, tc := range cfg.Tables {
		fields := make([]openflow.FieldID, 0, len(tc.Fields))
		for _, name := range tc.Fields {
			f, ok := FieldByName(name)
			if !ok {
				return nil, fmt.Errorf("core: table %d references unknown field %q", tc.ID, name)
			}
			fields = append(fields, f)
		}
		miss, err := parseMiss(tc.Miss)
		if err != nil {
			return nil, fmt.Errorf("core: table %d: %w", tc.ID, err)
		}
		if miss.Kind == MissGoto && miss.Table <= openflow.TableID(tc.ID) {
			return nil, fmt.Errorf("core: table %d miss goto must move forward", tc.ID)
		}
		if _, err := p.AddTable(TableConfig{
			ID:         openflow.TableID(tc.ID),
			Fields:     fields,
			Miss:       miss,
			Backend:    tc.Backend,
			BudgetBits: tc.Budget,
		}); err != nil {
			return nil, fmt.Errorf("core: table entry %d: %w", i, err)
		}
	}
	if cfg.Budget > 0 {
		p.SetMemoryBudget(cfg.Budget)
	}
	return p, nil
}

// PrototypeConfig returns the paper's evaluated 4-table layout as a
// configuration document (useful as a template for -pipeline files).
func PrototypeConfig() *PipelineConfig {
	return &PipelineConfig{
		Name: "socc15-prototype",
		Tables: []TableConfigJSON{
			{ID: 0, Fields: []string{"vlan-id"}, Miss: "goto:2"},
			{ID: 1, Fields: []string{"metadata", "eth-dst"}},
			{ID: 2, Fields: []string{"in-port"}},
			{ID: 3, Fields: []string{"metadata", "ipv4-dst"}},
		},
	}
}
