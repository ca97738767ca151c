package openflow

import (
	"reflect"
	"testing"
)

// FuzzDecodeFlowEntry checks that arbitrary bytes never panic the decoder
// and that anything that decodes re-encodes losslessly when well formed.
// A persistent arena carries state across inputs, as a connection's does.
func FuzzDecodeFlowEntry(f *testing.F) {
	f.Add(AppendFlowEntry(nil, &FlowEntry{Priority: 1}))
	f.Add(AppendFlowEntry(nil, &FlowEntry{
		Priority: 7,
		Matches:  []Match{Exact(FieldVLANID, 5), Prefix(FieldIPv4Dst, 0x0A000000, 8)},
		Instructions: []Instruction{
			GotoTable(1),
			WriteActions(Output(3), Drop()),
		},
	}))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	var ar EntryArena
	f.Fuzz(func(t *testing.T, data []byte) {
		ar.Reset()
		var e FlowEntry
		n, err := DecodeFlowEntryInto(&e, data, &ar)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("decoder consumed %d of %d bytes", n, len(data))
		}
		// Re-encode and decode again: must be a fixed point, and the
		// heap path must agree with the arena path.
		buf := AppendFlowEntry(nil, &e)
		var e2 FlowEntry
		n2, err := DecodeFlowEntryInto(&e2, buf, nil)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if n2 != len(buf) || !reflect.DeepEqual(e, e2) {
			t.Fatalf("round trip not a fixed point")
		}
	})
}

// FuzzDecodeHeader checks the packet-header decoder.
func FuzzDecodeHeader(f *testing.F) {
	f.Add(AppendHeader(nil, &Header{InPort: 1, VLANID: 10, EthDst: 0xAABBCCDDEEFF}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var h, h2 Header
		if _, err := DecodeHeaderInto(&h, data); err != nil {
			return
		}
		buf := AppendHeader(nil, &h)
		if n, err := DecodeHeaderInto(&h2, buf); err != nil || n != len(buf) || h != h2 {
			t.Fatal("header round trip not a fixed point")
		}
	})
}
