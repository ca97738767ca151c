package update

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"ofmtl/internal/bitops"
	"ofmtl/internal/filterset"
	"ofmtl/internal/mbt"
)

// Section V.B: "two files are generated with the information to
// characterize each algorithm and table block. For each entry, the
// required information is extracted and interpreted to update the
// algorithm structures and the action tables." This file implements those
// update files concretely: a binary stream of addressed write records that
// a replay engine applies to a simulated memory image at two cycles per
// record (index calculation, then store).

// RecordKind identifies the destination structure of one update record.
type RecordKind uint8

// Record kinds.
const (
	RecordTrieNode  RecordKind = iota + 1 // a multi-bit trie slot write
	RecordLUT                             // an exact-match LUT row write
	RecordIndexCalc                       // an index-calculation row write
	RecordAction                          // an action-table row write
)

// String names the record kind.
func (k RecordKind) String() string {
	switch k {
	case RecordTrieNode:
		return "trie"
	case RecordLUT:
		return "lut"
	case RecordIndexCalc:
		return "index"
	case RecordAction:
		return "action"
	default:
		return "unknown"
	}
}

// Record is one addressed write: the block selects the physical memory
// (e.g. partition trie and level), the index addresses a word inside it,
// and the data word carries the label and payload being stored.
type Record struct {
	Kind  RecordKind
	Block uint16
	Index uint32
	Data  uint64
}

// File is one update file: a named, ordered record stream.
type File struct {
	Name    string
	Records []Record
}

const fileMagic = 0x0F57 // "OFupdate"

// WriteTo serialises the file (binary, big endian).
func (f *File) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	hdr := make([]byte, 2+2+4)
	binary.BigEndian.PutUint16(hdr, fileMagic)
	binary.BigEndian.PutUint16(hdr[2:], uint16(len(f.Name)))
	binary.BigEndian.PutUint32(hdr[4:], uint32(len(f.Records)))
	if _, err := bw.Write(hdr); err != nil {
		return n, fmt.Errorf("update: writing file header: %w", err)
	}
	n += int64(len(hdr))
	if _, err := bw.WriteString(f.Name); err != nil {
		return n, fmt.Errorf("update: writing file name: %w", err)
	}
	n += int64(len(f.Name))
	rec := make([]byte, 1+2+4+8)
	for _, r := range f.Records {
		rec[0] = byte(r.Kind)
		binary.BigEndian.PutUint16(rec[1:], r.Block)
		binary.BigEndian.PutUint32(rec[3:], r.Index)
		binary.BigEndian.PutUint64(rec[7:], r.Data)
		if _, err := bw.Write(rec); err != nil {
			return n, fmt.Errorf("update: writing record: %w", err)
		}
		n += int64(len(rec))
	}
	if err := bw.Flush(); err != nil {
		return n, fmt.Errorf("update: flushing file: %w", err)
	}
	return n, nil
}

// ReadFile parses a file serialised by WriteTo.
func ReadFile(r io.Reader) (*File, error) {
	br := bufio.NewReader(r)
	hdr := make([]byte, 8)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("update: reading file header: %w", err)
	}
	if binary.BigEndian.Uint16(hdr) != fileMagic {
		return nil, fmt.Errorf("update: bad magic %#x", binary.BigEndian.Uint16(hdr))
	}
	nameLen := int(binary.BigEndian.Uint16(hdr[2:]))
	count := int(binary.BigEndian.Uint32(hdr[4:]))
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("update: reading file name: %w", err)
	}
	f := &File{Name: string(name), Records: make([]Record, 0, count)}
	rec := make([]byte, 15)
	for i := 0; i < count; i++ {
		if _, err := io.ReadFull(br, rec); err != nil {
			return nil, fmt.Errorf("update: reading record %d: %w", i, err)
		}
		f.Records = append(f.Records, Record{
			Kind:  RecordKind(rec[0]),
			Block: binary.BigEndian.Uint16(rec[1:]),
			Index: binary.BigEndian.Uint32(rec[3:]),
			Data:  binary.BigEndian.Uint64(rec[7:]),
		})
	}
	return f, nil
}

// trieBlock encodes (partition, level) into a record block id.
func trieBlock(partition, level int) uint16 {
	return uint16(partition)<<4 | uint16(level)
}

// pathRecords appends the write records of inserting value/plen into a
// 16-bit trie with the given strides: one child-pointer write per level
// descended and one slot write per expanded slot at the terminal level —
// the same layout mbt.Trie materialises.
func pathRecords(dst []Record, partition int, value uint64, plen int, strides []int, data uint64) []Record {
	cum := 0
	width := 0
	for _, s := range strides {
		width += s
	}
	for lvl, s := range strides {
		shift := width - cum - s
		if plen > cum+s {
			// Descend: write the child pointer slot at this level.
			idx := uint32(value>>uint(shift)) & uint32(1<<uint(s)-1)
			dst = append(dst, Record{Kind: RecordTrieNode, Block: trieBlock(partition, lvl+1), Index: idx, Data: data})
			cum += s
			continue
		}
		// Terminal level: expand the prefix remainder.
		free := cum + s - plen
		base := uint32(0)
		if plen-cum > 0 {
			base = (uint32(value>>uint(shift)) & uint32(1<<uint(s)-1)) >> uint(free) << uint(free)
		}
		for i := uint32(0); i < uint32(1)<<uint(free); i++ {
			dst = append(dst, Record{Kind: RecordTrieNode, Block: trieBlock(partition, lvl+1), Index: base + i, Data: data})
		}
		break
	}
	return dst
}

// MACUpdateFiles generates the optimized (label method) and original
// update files for a MAC filter, with real addressed records.
func MACUpdateFiles(f *filterset.MACFilter) (optimized, original *File) {
	strides := mbt.DefaultStrides16
	optimized = &File{Name: f.Name + "/mac/optimized"}
	original = &File{Name: f.Name + "/mac/original"}

	seenVLAN := map[uint16]uint64{}
	seenPart := [3]map[uint16]uint64{{}, {}, {}}
	for ri, r := range f.Rules {
		// Original file: every rule rewrites its own copies.
		original.Records = append(original.Records,
			Record{Kind: RecordLUT, Block: 0, Index: uint32(r.VLAN), Data: uint64(ri)})
		for part := 0; part < 3; part++ {
			v := bitops.Partition16(r.EthDst, 48, part)
			original.Records = pathRecords(original.Records, part, uint64(v), 16, strides, uint64(ri))
		}
		// Optimized file: only unique values are written.
		if _, ok := seenVLAN[r.VLAN]; !ok {
			lab := uint64(len(seenVLAN))
			seenVLAN[r.VLAN] = lab
			optimized.Records = append(optimized.Records,
				Record{Kind: RecordLUT, Block: 0, Index: uint32(r.VLAN), Data: lab})
		}
		for part := 0; part < 3; part++ {
			v := bitops.Partition16(r.EthDst, 48, part)
			if _, ok := seenPart[part][v]; !ok {
				lab := uint64(len(seenPart[part]))
				seenPart[part][v] = lab
				optimized.Records = pathRecords(optimized.Records, part, uint64(v), 16, strides, lab)
			}
		}
		// Table blocks (index calculation + action row) are written per
		// rule in both files.
		for _, file := range []*File{optimized, original} {
			file.Records = append(file.Records,
				Record{Kind: RecordIndexCalc, Block: 1, Index: uint32(ri), Data: uint64(ri)},
				Record{Kind: RecordAction, Block: 1, Index: uint32(ri), Data: uint64(r.OutPort)},
			)
		}
	}
	return optimized, original
}

// RouteUpdateFiles generates the update-file pair for a routing filter.
func RouteUpdateFiles(f *filterset.RouteFilter) (optimized, original *File) {
	strides := mbt.DefaultStrides16
	optimized = &File{Name: f.Name + "/route/optimized"}
	original = &File{Name: f.Name + "/route/original"}

	seenPort := map[uint32]uint64{}
	seenPart := [2]map[partIDKey]uint64{{}, {}}
	for ri, r := range f.Rules {
		original.Records = append(original.Records,
			Record{Kind: RecordLUT, Block: 0, Index: r.InPort, Data: uint64(ri)})
		parts := bitops.SplitPrefix16(uint64(r.Prefix), 32, r.PrefixLen)
		for _, p := range parts {
			original.Records = pathRecords(original.Records, p.Index, uint64(p.Value), p.Len, strides, uint64(ri))
		}
		if _, ok := seenPort[r.InPort]; !ok {
			lab := uint64(len(seenPort))
			seenPort[r.InPort] = lab
			optimized.Records = append(optimized.Records,
				Record{Kind: RecordLUT, Block: 0, Index: r.InPort, Data: lab})
		}
		for _, p := range parts {
			k := partIDKey{p.Value, p.Len}
			if _, ok := seenPart[p.Index][k]; !ok {
				lab := uint64(len(seenPart[p.Index]))
				seenPart[p.Index][k] = lab
				optimized.Records = pathRecords(optimized.Records, p.Index, uint64(p.Value), p.Len, strides, lab)
			}
		}
		for _, file := range []*File{optimized, original} {
			file.Records = append(file.Records,
				Record{Kind: RecordIndexCalc, Block: 1, Index: uint32(ri), Data: uint64(ri)},
				Record{Kind: RecordAction, Block: 1, Index: uint32(ri), Data: uint64(r.NextHop)},
			)
		}
	}
	return optimized, original
}

type partIDKey struct {
	value uint16
	plen  int
}

// MemoryImage is the destination of a replay: per-block word maps,
// standing in for the hardware's memory blocks.
type MemoryImage struct {
	words map[blockAddr]uint64
}

type blockAddr struct {
	kind  RecordKind
	block uint16
	index uint32
}

// NewMemoryImage returns an empty image.
func NewMemoryImage() *MemoryImage {
	return &MemoryImage{words: make(map[blockAddr]uint64)}
}

// Words returns the number of distinct words written.
func (m *MemoryImage) Words() int { return len(m.words) }

// WordsOf returns the distinct words written to a record kind.
func (m *MemoryImage) WordsOf(kind RecordKind) int {
	n := 0
	for a := range m.words {
		if a.kind == kind {
			n++
		}
	}
	return n
}

// Read returns the word at (kind, block, index).
func (m *MemoryImage) Read(kind RecordKind, block uint16, index uint32) (uint64, bool) {
	v, ok := m.words[blockAddr{kind, block, index}]
	return v, ok
}

// Replay applies the file to the image, returning the clock cycles spent
// (CyclesPerRecord per record: the index is calculated in the first cycle
// and the data stored in the second, Section V.B).
func (e Engine) Replay(f *File, img *MemoryImage) uint64 {
	for _, r := range f.Records {
		img.words[blockAddr{r.Kind, r.Block, r.Index}] = r.Data
	}
	return uint64(len(f.Records)) * CyclesPerRecord
}
