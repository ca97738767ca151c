package openflow

import (
	"reflect"
	"testing"
	"testing/quick"

	"ofmtl/internal/bitops"
)

func TestFlowEntryRoundTrip(t *testing.T) {
	entries := []*FlowEntry{
		testEntry(),
		{Priority: -5}, // negative priority, no matches or instructions
		{
			Priority: 42,
			Matches:  []Match{Range(FieldDstPort, 80, 443), Any(FieldEthSrc)},
			Instructions: []Instruction{
				ApplyActions(Drop()),
				WriteMetadata(0xDEAD, 0xFFFF),
			},
		},
		{
			Matches: []Match{Prefix128(FieldIPv6Dst, bitops.U128{Hi: 0x20010DB8 << 32}, 32)},
		},
	}
	for i, e := range entries {
		buf := AppendFlowEntry(nil, e)
		got := &FlowEntry{}
		n, err := DecodeFlowEntryInto(got, buf, nil)
		if err != nil {
			t.Fatalf("entry %d: decode error: %v", i, err)
		}
		if n != len(buf) {
			t.Errorf("entry %d: consumed %d of %d bytes", i, n, len(buf))
		}
		if !reflect.DeepEqual(e, got) {
			t.Errorf("entry %d round trip mismatch:\n in: %+v\nout: %+v", i, e, got)
		}
	}
}

func TestFlowEntryDecodeTruncated(t *testing.T) {
	buf := AppendFlowEntry(nil, testEntry())
	for cut := 0; cut < len(buf); cut++ {
		if _, err := DecodeFlowEntryInto(&FlowEntry{}, buf[:cut], nil); err == nil {
			t.Fatalf("decode of %d/%d bytes should fail", cut, len(buf))
		}
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := &Header{
		InPort:   7,
		EthSrc:   0x0011_2233_4455,
		EthDst:   0xAABB_CCDD_EEFF,
		EthType:  0x0800,
		VLANID:   100,
		VLANPrio: 3,
		MPLS:     0xFFFFF,
		IPv4Src:  0xC0A80101,
		IPv4Dst:  0x08080808,
		IPv6Src:  bitops.U128{Hi: 1, Lo: 2},
		IPv6Dst:  bitops.U128{Hi: 3, Lo: 4},
		IPProto:  6,
		IPToS:    0x2E,
		SrcPort:  12345,
		DstPort:  443,
		ARPOp:    2,
		ARPSPA:   0xC0A80001,
		ARPTPA:   0xC0A800FE,
		Metadata: 0xFEEDFACE,
	}
	buf := AppendHeader(nil, h)
	got := &Header{}
	n, err := DecodeHeaderInto(got, buf)
	if err != nil {
		t.Fatalf("decode error: %v", err)
	}
	if n != len(buf) {
		t.Errorf("consumed %d of %d bytes", n, len(buf))
	}
	if *got != *h {
		t.Errorf("round trip mismatch:\n in: %+v\nout: %+v", h, got)
	}
}

func TestHeaderDecodeTruncated(t *testing.T) {
	buf := AppendHeader(nil, &Header{InPort: 1})
	if _, err := DecodeHeaderInto(&Header{}, buf[:len(buf)-1]); err == nil {
		t.Error("truncated header should fail to decode")
	}
}

// Property: arbitrary well-formed entries survive a round trip.
func TestFlowEntryRoundTripProperty(t *testing.T) {
	f := func(prio int32, cookie uint64, vlan uint16, ip uint32, plen uint8, port uint16, tbl uint8) bool {
		e := &FlowEntry{
			Priority: int(prio),
			Cookie:   cookie,
			Matches: []Match{
				Exact(FieldVLANID, uint64(vlan&0x1FFF)),
				Prefix(FieldIPv4Dst, uint64(ip)&bitops.Mask64(int(plen%33), 32), int(plen%33)),
			},
			Instructions: []Instruction{
				GotoTable(TableID(tbl)),
				WriteActions(Output(uint32(port))),
			},
		}
		buf := AppendFlowEntry(nil, e)
		got := &FlowEntry{}
		n, err := DecodeFlowEntryInto(got, buf, nil)
		return err == nil && n == len(buf) && reflect.DeepEqual(e, got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: headers survive a round trip for arbitrary field values.
func TestHeaderRoundTripProperty(t *testing.T) {
	f := func(inPort uint32, src, dst uint64, vlan uint16, sp, dp uint16, meta uint64) bool {
		h := &Header{
			InPort:   inPort,
			EthSrc:   src & bitops.LowMask64(48),
			EthDst:   dst & bitops.LowMask64(48),
			VLANID:   vlan,
			SrcPort:  sp,
			DstPort:  dp,
			Metadata: meta,
		}
		buf := AppendHeader(nil, h)
		var got Header
		_, err := DecodeHeaderInto(&got, buf)
		return err == nil && got == *h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHeaderGetSetRoundTrip(t *testing.T) {
	h := &Header{}
	for _, spec := range CommonFields() {
		v := bitops.U128From64(1)
		h.Set(spec.ID, v)
		if got := h.Get(spec.ID); got != v {
			t.Errorf("Get(%s) after Set = %v, want %v", spec.Name, got, v)
		}
	}
	// Unknown field: Get returns zero, Set is a no-op.
	if got := h.Get(FieldID(200)); !got.IsZero() {
		t.Error("unknown field Get should be zero")
	}
}
