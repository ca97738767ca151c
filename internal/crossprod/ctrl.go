package crossprod

import (
	"fmt"

	"ofmtl/internal/cow"
)

// Control bytes of the open-addressed tables. A full slot stores
// ctrlFull | the top 7 bits of its bucket hash, so a probe walking the
// dense control array rejects almost every non-matching slot from one
// byte and a miss usually terminates within a single cache line — the
// Swiss-table idea, scalar variant.
const (
	ctrlEmpty uint8 = 0x00
	ctrlTomb  uint8 = 0x01
	ctrlFull  uint8 = 0x80
)

func ctrlOf(bucketHash uint64) uint8 { return ctrlFull | uint8(bucketHash>>57) }

// Control-array geometry: the paged element is a group of control bytes
// sized so that a page holds 1 KiB whatever cow.PageSize is. A probe then
// reads one directory entry before its byte, and the directory of a
// 512 k-slot array is 512 pointers (4 KiB), small enough to stay cached
// beside the bytes a miss reads.
const (
	ctrlPageShift  = 10
	ctrlGroupShift = ctrlPageShift - cow.PageShift
	ctrlGroupMask  = 1<<ctrlGroupShift - 1
)

type ctrlGroup [1 << ctrlGroupShift]uint8

// ctrlArray is the open-addressed control-byte array of a Table or a
// stage: one byte per slot — empty, tombstone, or full with seven bits of
// its key's bucket hash — probed linearly from a key's home bucket. It
// owns probing, claiming and tombstoning slots, growth and publishing;
// what a slot holds, and how a full byte's key is compared, is its
// owner's. The bytes are paged like the slots (cow), so a publish shares
// them and a commit copies the 1 KiB pages whose bytes it changed.
type ctrlArray struct {
	bytes cow.Array[ctrlGroup]
	mask  uint64 // slots - 1; the slot count is a power of two
	used  int    // full slots
	tombs int    // tombstones awaiting the next rehash; live side only
}

// slots returns the array's length: zero until the first reset.
func (c *ctrlArray) slots() int {
	if len(c.bytes.Dir) == 0 {
		return 0
	}
	return int(c.mask) + 1
}

// at returns control byte i (i ≤ mask). Every page of a non-empty array
// is allocated, so the read needs no nil check.
func (c *ctrlArray) at(i uint64) uint8 {
	return c.bytes.Dir[i>>ctrlPageShift][i>>ctrlGroupShift&cow.PageMask][i&ctrlGroupMask]
}

func (c *ctrlArray) set(i uint64, b uint8) {
	c.bytes.Mut(int(i >> ctrlGroupShift))[i&ctrlGroupMask] = b
}

// match returns the first slot at or after probe position i (wrapping)
// whose control byte is want, or -1 when an empty byte comes first. A
// probe for a key of bucket hash bh visits its candidates as
// match(bh, ctrlOf(bh)), match(j+1, …) until one holds the key or -1
// ends the probe. The array must be non-empty.
func (c *ctrlArray) match(i uint64, want uint8) int {
	for ; ; i++ {
		j := i & c.mask
		switch c.at(j) {
		case want:
			return int(j)
		case ctrlEmpty:
			return -1
		}
	}
}

// needsGrow reports whether claiming one more slot would put live slots
// plus tombstones past half the array: the owner rehashes first, trading
// a little memory for short miss probes — the index-calculation stage
// probes mostly-absent candidate combinations.
func (c *ctrlArray) needsGrow() bool {
	return (c.used+c.tombs+1)*2 > c.slots()
}

// claim marks the first non-full slot on bh's probe sequence full for a
// key of bucket hash bh and returns it. The owner checked needsGrow.
func (c *ctrlArray) claim(bh uint64) int {
	i := bh & c.mask
	for c.at(i)&ctrlFull != 0 {
		i = (i + 1) & c.mask
	}
	if c.at(i) == ctrlTomb {
		c.tombs--
	}
	c.set(i, ctrlOf(bh))
	c.used++
	return int(i)
}

// tomb frees full slot i, leaving a tombstone so that the keys probed
// past it stay reachable.
func (c *ctrlArray) tomb(i int) {
	c.set(uint64(i), ctrlTomb)
	c.used--
	c.tombs++
}

// reset replaces the array with an all-empty one of at least minSlots
// slots (a power of two, at least 8) and returns the old one, whose full
// slots the owner claims again; views keep the old pages. Every page is
// allocated up front so that probes index the directory unchecked.
func (c *ctrlArray) reset(minSlots int) ctrlArray {
	old := *c
	n := 8
	for n < minSlots {
		n <<= 1
	}
	*c = ctrlArray{mask: uint64(n - 1)}
	groups := (n + ctrlGroupMask) >> ctrlGroupShift
	for g := 0; g < groups; g += cow.PageSize {
		c.bytes.Mut(g)
	}
	return old
}

// publish returns an immutable view sharing every page.
func (c *ctrlArray) publish() ctrlArray {
	return ctrlArray{bytes: c.bytes.Publish(), mask: c.mask, used: c.used}
}

// check verifies a live array against the slots it describes, bucketOf
// giving a full slot's bucket hash: used and tombs count the full bytes
// and the tombstones, every full byte is ctrlOf its slot's bucket hash,
// and every full slot is reachable from its home bucket without crossing
// an empty byte — a probe for its key finds it.
func (c *ctrlArray) check(bucketOf func(i int) uint64) error {
	full, tombs := 0, 0
	for i := 0; i < c.slots(); i++ {
		switch b := c.at(uint64(i)); {
		case b == ctrlTomb:
			tombs++
		case b&ctrlFull != 0:
			full++
			bh := bucketOf(i)
			if b != ctrlOf(bh) {
				return fmt.Errorf("slot %d holds control byte %#x, its bucket hash gives %#x", i, b, ctrlOf(bh))
			}
			for j := bh & c.mask; j != uint64(i); j = (j + 1) & c.mask {
				if c.at(j) == ctrlEmpty {
					return fmt.Errorf("slot %d is unreachable: empty slot %d lies between it and its home bucket %d", i, j, bh&c.mask)
				}
			}
		case b != ctrlEmpty:
			return fmt.Errorf("slot %d holds control byte %#x", i, b)
		}
	}
	if full != c.used || tombs != c.tombs {
		return fmt.Errorf("%d full slots and %d tombstones, counted %d and %d", full, tombs, c.used, c.tombs)
	}
	return nil
}
