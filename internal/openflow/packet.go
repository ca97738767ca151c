package openflow

import (
	"fmt"
	"strings"

	"ofmtl/internal/bitops"
)

// Header is a parsed packet header carrying the common match fields. It is
// the unit the lookup pipeline classifies. Field values live in the low
// bits of their slots; IPv6 fields use the full 128 bits.
type Header struct {
	InPort   uint32
	EthSrc   uint64 // 48-bit
	EthDst   uint64 // 48-bit
	EthType  uint16
	VLANID   uint16 // 13-bit incl. present flag
	VLANPrio uint8  // 3-bit
	MPLS     uint32 // 20-bit label
	IPv4Src  uint32
	IPv4Dst  uint32
	IPv6Src  bitops.U128
	IPv6Dst  bitops.U128
	IPProto  uint8
	IPToS    uint8 // 6-bit
	SrcPort  uint16
	DstPort  uint16

	// ARP header fields, carried when EthType is 0x0806.
	ARPOp  uint16
	ARPSPA uint32 // sender protocol address
	ARPTPA uint32 // target protocol address

	// Metadata is the 64-bit inter-table register written by
	// write-metadata instructions while the packet traverses the pipeline.
	Metadata uint64

	// PktLen is the frame length in bytes, consumed by per-flow byte
	// counters. It is not a match field and never enters lookup keys;
	// zero is counted as a minimum-size (64-byte) Ethernet frame.
	PktLen uint32
}

// Get returns the value of field f in the header. Unknown or extended
// fields (which Header does not carry) return zero.
func (h *Header) Get(f FieldID) bitops.U128 {
	switch f {
	case FieldInPort:
		return bitops.U128From64(uint64(h.InPort))
	case FieldEthSrc:
		return bitops.U128From64(h.EthSrc)
	case FieldEthDst:
		return bitops.U128From64(h.EthDst)
	case FieldEthType:
		return bitops.U128From64(uint64(h.EthType))
	case FieldVLANID:
		return bitops.U128From64(uint64(h.VLANID))
	case FieldVLANPriority:
		return bitops.U128From64(uint64(h.VLANPrio))
	case FieldMPLSLabel:
		return bitops.U128From64(uint64(h.MPLS))
	case FieldIPv4Src:
		return bitops.U128From64(uint64(h.IPv4Src))
	case FieldIPv4Dst:
		return bitops.U128From64(uint64(h.IPv4Dst))
	case FieldIPv6Src:
		return h.IPv6Src
	case FieldIPv6Dst:
		return h.IPv6Dst
	case FieldIPProto:
		return bitops.U128From64(uint64(h.IPProto))
	case FieldIPToS:
		return bitops.U128From64(uint64(h.IPToS))
	case FieldSrcPort:
		return bitops.U128From64(uint64(h.SrcPort))
	case FieldDstPort:
		return bitops.U128From64(uint64(h.DstPort))
	case FieldARPOp:
		return bitops.U128From64(uint64(h.ARPOp))
	case FieldARPSPA:
		return bitops.U128From64(uint64(h.ARPSPA))
	case FieldARPTPA:
		return bitops.U128From64(uint64(h.ARPTPA))
	case FieldMetadata:
		return bitops.U128From64(h.Metadata)
	default:
		return bitops.U128{}
	}
}

// Set assigns field f to value v (truncated to the field's width). Setting
// unknown fields is a no-op; the pipeline validates set-field actions
// before executing them.
func (h *Header) Set(f FieldID, v bitops.U128) {
	switch f {
	case FieldInPort:
		h.InPort = uint32(v.Lo)
	case FieldEthSrc:
		h.EthSrc = v.Lo & bitops.LowMask64(48)
	case FieldEthDst:
		h.EthDst = v.Lo & bitops.LowMask64(48)
	case FieldEthType:
		h.EthType = uint16(v.Lo)
	case FieldVLANID:
		h.VLANID = uint16(v.Lo) & 0x1FFF
	case FieldVLANPriority:
		h.VLANPrio = uint8(v.Lo) & 0x7
	case FieldMPLSLabel:
		h.MPLS = uint32(v.Lo) & 0xFFFFF
	case FieldIPv4Src:
		h.IPv4Src = uint32(v.Lo)
	case FieldIPv4Dst:
		h.IPv4Dst = uint32(v.Lo)
	case FieldIPv6Src:
		h.IPv6Src = v
	case FieldIPv6Dst:
		h.IPv6Dst = v
	case FieldIPProto:
		h.IPProto = uint8(v.Lo)
	case FieldIPToS:
		h.IPToS = uint8(v.Lo) & 0x3F
	case FieldSrcPort:
		h.SrcPort = uint16(v.Lo)
	case FieldDstPort:
		h.DstPort = uint16(v.Lo)
	case FieldARPOp:
		h.ARPOp = uint16(v.Lo)
	case FieldARPSPA:
		h.ARPSPA = uint32(v.Lo)
	case FieldARPTPA:
		h.ARPTPA = uint32(v.Lo)
	case FieldMetadata:
		h.Metadata = v.Lo
	}
}

// String renders the header compactly for logs and examples.
func (h *Header) String() string {
	var parts []string
	add := func(format string, args ...any) { parts = append(parts, fmt.Sprintf(format, args...)) }
	add("in_port=%d", h.InPort)
	if h.EthDst != 0 || h.EthSrc != 0 {
		add("eth=%012x->%012x", h.EthSrc, h.EthDst)
	}
	if h.VLANID != 0 {
		add("vlan=%d", h.VLANID)
	}
	if h.IPv4Src != 0 || h.IPv4Dst != 0 {
		add("ipv4=%s->%s", FormatIPv4(h.IPv4Src), FormatIPv4(h.IPv4Dst))
	}
	if h.SrcPort != 0 || h.DstPort != 0 {
		add("ports=%d->%d", h.SrcPort, h.DstPort)
	}
	return strings.Join(parts, " ")
}

// FormatIPv4 renders a host-order IPv4 address in dotted-quad form.
func FormatIPv4(v uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
