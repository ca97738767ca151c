package openflow

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ofmtl/internal/bitops"
)

// Binary wire encoding. All integers are big-endian (network order), as in
// the OpenFlow wire protocol. The encoding is TLV-flavoured: a flow entry
// carries a match count and an instruction count followed by fixed-layout
// records. It is deliberately simple — the goal is a faithful control
// channel for switchd/ofctl, not bit-compatibility with ONF framing.

// ErrTruncated is returned when a buffer ends before a complete record.
var ErrTruncated = errors.New("openflow: truncated message")

const (
	matchRecordLen  = 1 + 1 + 16 + 1 + 8 + 8 // field, kind, value, plen, lo, hi
	actionRecordLen = 1 + 4 + 1 + 16         // type, port, field, value
	instrHeaderLen  = 1 + 1 + 2 + 8 + 8      // type, table, action count, metadata, mask
	entryHeaderLen  = 4 + 8 + 2 + 2 + 2 + 2  // priority, cookie, match count, instr count, idle, hard
	headerLen       = 4 + 8 + 8 + 2 + 2 + 1 + 4 + 4 + 4 + 16 + 16 + 1 + 1 + 2 + 2 + 2 + 4 + 4 + 8 + 4
)

// AppendFlowEntry appends the wire form of e to buf and returns the
// extended slice.
func AppendFlowEntry(buf []byte, e *FlowEntry) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(e.Priority)))
	buf = binary.BigEndian.AppendUint64(buf, e.Cookie)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(e.Matches)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(e.Instructions)))
	buf = binary.BigEndian.AppendUint16(buf, e.IdleTimeout)
	buf = binary.BigEndian.AppendUint16(buf, e.HardTimeout)
	for _, m := range e.Matches {
		buf = append(buf, byte(m.Field), byte(m.Kind))
		buf = appendU128(buf, m.Value)
		buf = append(buf, byte(m.PrefixLen))
		buf = binary.BigEndian.AppendUint64(buf, m.Lo)
		buf = binary.BigEndian.AppendUint64(buf, m.Hi)
	}
	for _, in := range e.Instructions {
		buf = append(buf, byte(in.Type), byte(in.Table))
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(in.Actions)))
		buf = binary.BigEndian.AppendUint64(buf, in.Metadata)
		buf = binary.BigEndian.AppendUint64(buf, in.MetadataMask)
		for _, a := range in.Actions {
			buf = append(buf, byte(a.Type))
			buf = binary.BigEndian.AppendUint32(buf, a.Port)
			buf = append(buf, byte(a.Field))
			buf = appendU128(buf, a.Value)
		}
	}
	return buf
}

// EntryArena pools the variable-length slices flow-entry decoding needs
// (matches, instructions, actions). A decoder that threads one arena
// through a batch reuses the arena's capacity across messages, so the
// steady-state decode path allocates nothing. Decoded entries alias the
// arena until the next Reset, so callers must consume (or copy) them
// before reusing it.
type EntryArena struct {
	matches []Match
	instrs  []Instruction
	actions []Action
}

// Reset empties the arena, retaining capacity for the next batch.
func (ar *EntryArena) Reset() {
	ar.matches = ar.matches[:0]
	ar.instrs = ar.instrs[:0]
	ar.actions = ar.actions[:0]
}

// grabMatches extends the arena by n matches and returns the new region.
// The region is capacity-clamped so a later append on the returned slice
// can never overwrite a neighbouring region.
func (ar *EntryArena) grabMatches(n int) []Match {
	off := len(ar.matches)
	ar.matches = append(ar.matches, make([]Match, n)...)
	return ar.matches[off : off+n : off+n]
}

func (ar *EntryArena) grabInstrs(n int) []Instruction {
	off := len(ar.instrs)
	ar.instrs = append(ar.instrs, make([]Instruction, n)...)
	return ar.instrs[off : off+n : off+n]
}

func (ar *EntryArena) grabActions(n int) []Action {
	off := len(ar.actions)
	ar.actions = append(ar.actions, make([]Action, n)...)
	return ar.actions[off : off+n : off+n]
}

// DecodeFlowEntryInto decodes one flow entry from buf into e (fully
// overwritten), returning the bytes consumed. The entry's slices are
// drawn from the arena: once it has grown to a batch's working set,
// later batches decode with zero allocations. With a nil arena they come
// from the heap. Counts are checked against the bytes left before they
// size anything.
func DecodeFlowEntryInto(e *FlowEntry, buf []byte, ar *EntryArena) (int, error) {
	if len(buf) < entryHeaderLen {
		return 0, fmt.Errorf("decoding flow entry header: %w", ErrTruncated)
	}
	*e = FlowEntry{
		Priority:    int(int32(binary.BigEndian.Uint32(buf))),
		Cookie:      binary.BigEndian.Uint64(buf[4:]),
		IdleTimeout: binary.BigEndian.Uint16(buf[16:]),
		HardTimeout: binary.BigEndian.Uint16(buf[18:]),
	}
	nMatch := int(binary.BigEndian.Uint16(buf[12:]))
	nInstr := int(binary.BigEndian.Uint16(buf[14:]))
	off := entryHeaderLen

	if len(buf[off:]) < nMatch*matchRecordLen {
		return 0, fmt.Errorf("decoding matches: %w", ErrTruncated)
	}
	if nMatch > 0 {
		if ar != nil {
			e.Matches = ar.grabMatches(nMatch)
		} else {
			e.Matches = make([]Match, nMatch)
		}
	}
	for i := 0; i < nMatch; i++ {
		m := &e.Matches[i]
		m.Field = FieldID(buf[off])
		m.Kind = MatchKind(buf[off+1])
		m.Value = readU128(buf[off+2:])
		m.PrefixLen = int(buf[off+18])
		m.Lo = binary.BigEndian.Uint64(buf[off+19:])
		m.Hi = binary.BigEndian.Uint64(buf[off+27:])
		off += matchRecordLen
	}
	if len(buf[off:]) < nInstr*instrHeaderLen {
		return 0, fmt.Errorf("decoding instructions: %w", ErrTruncated)
	}
	if nInstr > 0 {
		if ar != nil {
			e.Instructions = ar.grabInstrs(nInstr)
		} else {
			e.Instructions = make([]Instruction, nInstr)
		}
	}
	for i := 0; i < nInstr; i++ {
		if len(buf[off:]) < instrHeaderLen {
			return 0, fmt.Errorf("decoding instruction %d: %w", i, ErrTruncated)
		}
		in := &e.Instructions[i]
		in.Type = InstructionType(buf[off])
		in.Table = TableID(buf[off+1])
		nAct := int(binary.BigEndian.Uint16(buf[off+2:]))
		in.Metadata = binary.BigEndian.Uint64(buf[off+4:])
		in.MetadataMask = binary.BigEndian.Uint64(buf[off+12:])
		in.Actions = nil
		off += instrHeaderLen
		if len(buf[off:]) < nAct*actionRecordLen {
			return 0, fmt.Errorf("decoding actions of instruction %d: %w", i, ErrTruncated)
		}
		if nAct > 0 {
			if ar != nil {
				in.Actions = ar.grabActions(nAct)
			} else {
				in.Actions = make([]Action, nAct)
			}
		}
		for j := 0; j < nAct; j++ {
			a := &in.Actions[j]
			a.Type = ActionType(buf[off])
			a.Port = binary.BigEndian.Uint32(buf[off+1:])
			a.Field = FieldID(buf[off+5])
			a.Value = readU128(buf[off+6:])
			off += actionRecordLen
		}
	}
	return off, nil
}

// AppendHeader appends the wire form of h to buf.
func AppendHeader(buf []byte, h *Header) []byte {
	buf = binary.BigEndian.AppendUint32(buf, h.InPort)
	buf = binary.BigEndian.AppendUint64(buf, h.EthSrc)
	buf = binary.BigEndian.AppendUint64(buf, h.EthDst)
	buf = binary.BigEndian.AppendUint16(buf, h.EthType)
	buf = binary.BigEndian.AppendUint16(buf, h.VLANID)
	buf = append(buf, h.VLANPrio)
	buf = binary.BigEndian.AppendUint32(buf, h.MPLS)
	buf = binary.BigEndian.AppendUint32(buf, h.IPv4Src)
	buf = binary.BigEndian.AppendUint32(buf, h.IPv4Dst)
	buf = appendU128(buf, h.IPv6Src)
	buf = appendU128(buf, h.IPv6Dst)
	buf = append(buf, h.IPProto, h.IPToS)
	buf = binary.BigEndian.AppendUint16(buf, h.SrcPort)
	buf = binary.BigEndian.AppendUint16(buf, h.DstPort)
	buf = binary.BigEndian.AppendUint16(buf, h.ARPOp)
	buf = binary.BigEndian.AppendUint32(buf, h.ARPSPA)
	buf = binary.BigEndian.AppendUint32(buf, h.ARPTPA)
	buf = binary.BigEndian.AppendUint64(buf, h.Metadata)
	buf = binary.BigEndian.AppendUint32(buf, h.PktLen)
	return buf
}

// DecodeHeaderInto decodes one packet header into h (fully overwritten),
// returning the bytes consumed. It allocates nothing, so batch decoders
// can reuse a header arena across messages.
func DecodeHeaderInto(h *Header, buf []byte) (int, error) {
	if len(buf) < headerLen {
		return 0, fmt.Errorf("decoding packet header: %w", ErrTruncated)
	}
	h.InPort = binary.BigEndian.Uint32(buf)
	h.EthSrc = binary.BigEndian.Uint64(buf[4:])
	h.EthDst = binary.BigEndian.Uint64(buf[12:])
	h.EthType = binary.BigEndian.Uint16(buf[20:])
	h.VLANID = binary.BigEndian.Uint16(buf[22:])
	h.VLANPrio = buf[24]
	h.MPLS = binary.BigEndian.Uint32(buf[25:])
	h.IPv4Src = binary.BigEndian.Uint32(buf[29:])
	h.IPv4Dst = binary.BigEndian.Uint32(buf[33:])
	h.IPv6Src = readU128(buf[37:])
	h.IPv6Dst = readU128(buf[53:])
	h.IPProto = buf[69]
	h.IPToS = buf[70]
	h.SrcPort = binary.BigEndian.Uint16(buf[71:])
	h.DstPort = binary.BigEndian.Uint16(buf[73:])
	h.ARPOp = binary.BigEndian.Uint16(buf[75:])
	h.ARPSPA = binary.BigEndian.Uint32(buf[77:])
	h.ARPTPA = binary.BigEndian.Uint32(buf[81:])
	h.Metadata = binary.BigEndian.Uint64(buf[85:])
	h.PktLen = binary.BigEndian.Uint32(buf[93:])
	return headerLen, nil
}

func appendU128(buf []byte, v bitops.U128) []byte {
	buf = binary.BigEndian.AppendUint64(buf, v.Hi)
	return binary.BigEndian.AppendUint64(buf, v.Lo)
}

func readU128(buf []byte) bitops.U128 {
	return bitops.U128{
		Hi: binary.BigEndian.Uint64(buf),
		Lo: binary.BigEndian.Uint64(buf[8:]),
	}
}

// Wire widths exported so codecs layered above (batches, group buckets
// and stats rows in ofproto) can frame their records, and bound a
// peer's counts by the bytes that carry them, without duplicating the
// layout.
const (
	// ActionRecordLen is the fixed width of one action record
	// [type u8 | port u32 | field u8 | value u128].
	ActionRecordLen = actionRecordLen
	// HeaderLen is the fixed width of one packet header.
	HeaderLen = headerLen
	// MinFlowEntryLen is the width of a flow entry with no matches and
	// no instructions: every entry record is at least this long.
	MinFlowEntryLen = entryHeaderLen
)

// AppendAction appends the wire form of one action record to buf —
// the same layout AppendFlowEntry uses inside instruction bodies.
func AppendAction(buf []byte, a *Action) []byte {
	buf = append(buf, byte(a.Type))
	buf = binary.BigEndian.AppendUint32(buf, a.Port)
	buf = append(buf, byte(a.Field))
	return appendU128(buf, a.Value)
}

// DecodeActionInto decodes one action record from buf into a and
// returns the bytes consumed.
func DecodeActionInto(a *Action, buf []byte) (int, error) {
	if len(buf) < actionRecordLen {
		return 0, ErrTruncated
	}
	a.Type = ActionType(buf[0])
	a.Port = binary.BigEndian.Uint32(buf[1:])
	a.Field = FieldID(buf[5])
	a.Value = readU128(buf[6:])
	return actionRecordLen, nil
}
