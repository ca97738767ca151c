// Package lut implements the hash-based exact-match lookup table the paper
// uses for exact-matching fields (VLAN ID, ingress port, EtherType, …).
// Each unique field value is stored once and mapped to a label via the
// label method (Section IV.B); the hardware memory model counts buckets of
// fixed associativity, so the table also tracks bucket occupancy and
// overflow as a synthesised LUT would experience them.
//
// The value→label index lookups read is a packed open-addressed table
// (crossprod's two-dimension kind, the 64-bit value as its key), so a
// published view shares it page by page; the reference-counting label
// allocator and the bucket-occupancy model are control state that only
// updates touch.
package lut

import (
	"fmt"

	"ofmtl/internal/bitops"
	"ofmtl/internal/crossprod"
	"ofmtl/internal/label"
)

// DefaultWays is the bucket associativity of the modelled hardware LUT.
// Four-way buckets are typical for FPGA block-RAM hash tables.
const DefaultWays = 4

// LUT is an exact-match lookup table over values of a fixed bit width.
// Create one with New. A LUT returned by Publish is an immutable view:
// it serves Lookup and the accounting getters only.
type LUT struct {
	keyBits int
	ways    int
	// index maps each stored value to its label: the lookup state.
	index *crossprod.Table
	// alloc is the reference-counting label allocator; a view holds its
	// counters only.
	alloc *label.Allocator[uint64]

	buckets   int            // power of two
	occupancy map[uint32]int // nil in a view
}

// indexKey splits a value into the index's two key dimensions.
func indexKey(key uint64) [2]label.Label {
	return [2]label.Label{label.Label(key), label.Label(key >> 32)}
}

// New returns a LUT for keyBits-wide values (1..64) with the given bucket
// associativity (0 selects DefaultWays).
func New(keyBits, ways int) (*LUT, error) {
	if keyBits <= 0 || keyBits > 64 {
		return nil, fmt.Errorf("lut: key width %d out of range (1..64)", keyBits)
	}
	if ways == 0 {
		ways = DefaultWays
	}
	if ways < 0 {
		return nil, fmt.Errorf("lut: negative associativity %d", ways)
	}
	return &LUT{
		keyBits:   keyBits,
		ways:      ways,
		index:     crossprod.MustNew(2),
		alloc:     label.NewAllocator[uint64](),
		buckets:   16,
		occupancy: make(map[uint32]int),
	}, nil
}

// hash mixes a key into a bucket index (splitmix64 finaliser).
func (l *LUT) hash(key uint64) uint32 {
	z := key + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return uint32(z) & uint32(l.buckets-1)
}

// Insert acquires a label for key, growing the table when the average load
// would exceed the bucket associativity. It reports the label and whether
// the key was newly stored.
func (l *LUT) Insert(key uint64) (label.Label, bool, error) {
	if !l.fits(key) {
		return 0, false, fmt.Errorf("lut: key %#x exceeds %d-bit width", key, l.keyBits)
	}
	lab, isNew := l.alloc.Acquire(key)
	if isNew {
		k := indexKey(key)
		if err := l.index.Insert(k[:], crossprod.Binding{Payload: uint32(lab)}, 0); err != nil {
			_, _ = l.alloc.Release(key)
			return 0, false, fmt.Errorf("lut: %w", err)
		}
		if (l.alloc.Len()+1)*4 > l.buckets*l.ways*3 { // load factor 0.75
			l.grow()
		}
		l.occupancy[l.hash(key)]++
	}
	return lab, isNew, nil
}

// Remove releases one reference to key; the key's storage is reclaimed when
// its last reference disappears.
func (l *LUT) Remove(key uint64) (bool, error) {
	lab := l.alloc.Lookup(key)
	removed, err := l.alloc.Release(key)
	if err != nil {
		return false, fmt.Errorf("lut: %w", err)
	}
	if removed {
		k := indexKey(key)
		if err := l.index.Remove(k[:], crossprod.Binding{Payload: uint32(lab)}); err != nil {
			return false, fmt.Errorf("lut: %w", err)
		}
		h := l.hash(key)
		l.occupancy[h]--
		if l.occupancy[h] == 0 {
			delete(l.occupancy, h)
		}
	}
	return removed, nil
}

// Lookup returns the label stored for key, or label.NoLabel when absent.
func (l *LUT) Lookup(key uint64) label.Label {
	if b, ok := l.index.LookupPacked(key); ok {
		return label.Label(b.Payload)
	}
	return label.NoLabel
}

func (l *LUT) fits(key uint64) bool {
	return l.keyBits >= 64 || key <= bitops.LowMask64(l.keyBits)
}

func (l *LUT) grow() { l.resize(l.buckets * 2) }

// resize sets the bucket count and rehashes the occupancy model; the
// labels themselves are unaffected.
func (l *LUT) resize(buckets int) {
	l.buckets = buckets
	l.occupancy = make(map[uint32]int, len(l.occupancy))
	for _, lab := range l.alloc.Labels() {
		if v, ok := l.alloc.Value(lab); ok {
			l.occupancy[l.hash(v)]++
		}
	}
}

// Publish returns an immutable view of the LUT as it stands: the index
// shared page by page, the geometry and label counters by value. Later
// updates to l never show in it.
func (l *LUT) Publish() *LUT {
	return &LUT{
		keyBits: l.keyBits,
		ways:    l.ways,
		index:   l.index.Publish(),
		alloc:   l.alloc.Counters(),
		buckets: l.buckets,
	}
}

// Len returns the number of unique keys stored.
func (l *LUT) Len() int { return l.alloc.Len() }

// Peak returns the high-water mark of unique keys, which sizes the label
// width in the memory model.
func (l *LUT) Peak() int { return l.alloc.Peak() }

// KeyBits returns the key width.
func (l *LUT) KeyBits() int { return l.keyBits }

// Buckets returns the current number of hash buckets.
func (l *LUT) Buckets() int { return l.buckets }

// Ways returns the bucket associativity.
func (l *LUT) Ways() int { return l.ways }

// Overflow returns the number of stored keys that exceed their bucket's
// associativity — entries a hardware LUT would place in a spill area.
func (l *LUT) Overflow() int {
	over := 0
	for _, n := range l.occupancy {
		if n > l.ways {
			over += n - l.ways
		}
	}
	return over
}

// Allocator exposes the underlying label allocator (read-mostly use by the
// pipeline's index-calculation stage).
func (l *LUT) Allocator() *label.Allocator[uint64] { return l.alloc }

// AccountingState returns the quantities RestoreAccounting needs to undo
// a rejected transaction's effect on the memory model: the label
// high-water mark and the provisioned bucket count.
func (l *LUT) AccountingState() (peak, buckets int) { return l.alloc.Peak(), l.buckets }

// RestoreAccounting sets the accounting to a state captured with
// AccountingState, rehashing the occupancy model when the bucket count
// changes. The live key set must be one the captured geometry held (the
// peak never drops below the live count).
func (l *LUT) RestoreAccounting(peak, buckets int) {
	l.alloc.RestorePeak(peak)
	if buckets != l.buckets {
		l.resize(buckets)
	}
}
