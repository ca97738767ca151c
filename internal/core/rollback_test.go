package core

import (
	"testing"

	"ofmtl/internal/memmodel"
	"ofmtl/internal/openflow"
)

// TestInsertRollbackOnSearcherFailure: when a later field searcher rejects
// its match, the earlier searchers' acquisitions must be rolled back so
// the failed insert leaves no residue.
func TestInsertRollbackOnSearcherFailure(t *testing.T) {
	tbl, err := NewLookupTable(TableConfig{
		ID:     0,
		Fields: []openflow.FieldID{openflow.FieldIPv4Dst, openflow.FieldDstPort},
	})
	if err != nil {
		t.Fatal(err)
	}
	// A prefix constraint on a range field passes FlowEntry.Validate (it
	// is a well-formed match) but the range searcher rejects it — after
	// the IPv4 searcher already acquired its prefix.
	bad := &openflow.FlowEntry{
		Priority: 1,
		Matches: []openflow.Match{
			openflow.Prefix(openflow.FieldIPv4Dst, 0x0A000000, 8),
			openflow.Prefix(openflow.FieldDstPort, 0, 4),
		},
		Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Drop())},
	}
	if err := tbl.Insert(bad); err == nil {
		t.Fatal("insert with range-field prefix should fail")
	}
	// The IPv4 searcher must have been rolled back.
	s, _ := tbl.Searcher(openflow.FieldIPv4Dst)
	ps := s.(*PrefixFieldSearcher)
	if ps.UniqueValues() != 0 {
		t.Errorf("rollback leaked %d field values", ps.UniqueValues())
	}
	for i := 0; i < ps.Partitions(); i++ {
		if nodes := ps.PartitionTrie(i).StoredNodes(); nodes != 32 {
			t.Errorf("partition %d leaked trie nodes: %d", i, nodes)
		}
	}
	if tbl.Rules() != 0 {
		t.Errorf("failed insert counted: %d rules", tbl.Rules())
	}
	// The table still works normally afterwards.
	good := &openflow.FlowEntry{
		Priority: 1,
		Matches: []openflow.Match{
			openflow.Prefix(openflow.FieldIPv4Dst, 0x0A000000, 8),
			openflow.Range(openflow.FieldDstPort, 80, 80),
		},
		Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(1))},
	}
	if err := tbl.Insert(good); err != nil {
		t.Fatalf("insert after rollback: %v", err)
	}
	if _, ok := tbl.Classify(&openflow.Header{IPv4Dst: 0x0A010101, DstPort: 80}); !ok {
		t.Error("table broken after rollback")
	}
}

// TestRangeSearcherMemoryAccessors covers the accounting accessors.
func TestRangeSearcherMemoryAccessors(t *testing.T) {
	s, err := NewRangeFieldSearcher(openflow.FieldSrcPort)
	if err != nil {
		t.Fatal(err)
	}
	if s.LabelBits() != 0 || s.Entries() != 0 {
		t.Error("empty searcher should report zero label bits and entries")
	}
	for i := uint64(0); i < 10; i++ {
		if _, err := s.Insert(openflow.Range(openflow.FieldSrcPort, i*100, i*100+50)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Entries() != 10 {
		t.Errorf("Entries = %d", s.Entries())
	}
	if s.LabelBits() != 4 {
		t.Errorf("LabelBits = %d, want 4", s.LabelBits())
	}
	var rep memmodel.SystemReport
	s.memory(&memAccount{report: &rep, prefix: "ports"})
	if len(rep.Components) != 1 || rep.TotalBits <= 0 {
		t.Errorf("range memory report: %+v", rep)
	}
	// Exact searcher Entries accessor.
	es, err := NewExactFieldSearcher(openflow.FieldVLANID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := es.Insert(openflow.Exact(openflow.FieldVLANID, 9)); err != nil {
		t.Fatal(err)
	}
	if es.Entries() != 1 {
		t.Errorf("exact Entries = %d", es.Entries())
	}
}
