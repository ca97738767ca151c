package core

import (
	"math/bits"
	"sync/atomic"

	"ofmtl/internal/openflow"
)

// This file implements the pipeline's microflow cache: an exact-match
// fast path in front of the multi-table walk, in the style of the OVS
// microflow cache. Real traffic is heavily flow-skewed — a few elephant
// flows carry most packets — so the first packet of a flow pays the full
// multi-table lookup cost the paper analyses and every later packet of
// the same flow is served by a single hash probe.
//
// Layout: a fixed number of shards, each a fixed-size open-addressed
// array of entry pointers. The shard and slot are selected by a 64-bit
// fingerprint of the packed header key; a short linear probe window
// bounds the lookup. Entries are immutable once published — readers load
// an atomic pointer, verify the full packed key and the snapshot
// version, and share the interned Result. Fills publish a fresh entry
// with a plain atomic store (last-writer-wins; losing a racing fill is
// only a missed optimisation).
//
// Invalidation is generation-based: every published pipeline snapshot
// carries a version drawn from a monotonic counter, and a cache entry is
// valid only for the exact snapshot version it was filled at. A flow-mod
// bumps the table generation counters, the next lookup builds a new
// snapshot with a new version, and every cached entry goes stale at
// once — the conservative correctness rule, with no flush traffic on the
// hot path. Stale entries are overwritten in place by later fills.
//
// The cache stores classification outcomes, not provisioned lookup
// memory: like the snapshot clones, it models the second port of a
// dual-ported memory and does not enter the Table III/IV accounting of
// MemoryReport.

// flowKeyWords is the packed header key size. Every header field the
// pipeline can match on (including the metadata register a caller may
// preset) is packed into 12 words, so key equality is one array compare.
const flowKeyWords = 12

// flowKey is the packed exact-match key of one header.
type flowKey [flowKeyWords]uint64

// packFlowKey fills k from h. Every field is packed at its Go-type
// width into bits no other field shares — the wire codec does not mask
// EthSrc/EthDst to 48 bits or MPLS to 20, so the packing must not
// either: two headers the classifier could distinguish must never fold
// to one cache key.
func packFlowKey(k *flowKey, h *openflow.Header) {
	k[0] = uint64(h.InPort) | uint64(h.EthType)<<32 | uint64(h.VLANID)<<48
	k[1] = h.EthSrc
	k[2] = h.EthDst
	k[3] = uint64(h.IPv4Src) | uint64(h.IPv4Dst)<<32
	k[4] = uint64(h.SrcPort) | uint64(h.DstPort)<<16 | uint64(h.ARPOp)<<32 |
		uint64(h.VLANPrio)<<48 | uint64(h.IPToS)<<56
	k[5] = uint64(h.ARPSPA) | uint64(h.ARPTPA)<<32
	k[6] = h.IPv6Src.Hi
	k[7] = h.IPv6Src.Lo
	k[8] = h.IPv6Dst.Hi
	k[9] = h.IPv6Dst.Lo
	k[10] = h.Metadata
	k[11] = uint64(h.MPLS) | uint64(h.IPProto)<<32
}

// fingerprint condenses the key into the 64-bit value that selects the
// shard and slot (FNV-1a over the words, finalised with internMix).
func (k *flowKey) fingerprint() uint64 {
	const prime = 0x100000001B3
	h := uint64(0xCBF29CE484222325)
	for _, w := range k {
		h ^= w
		h *= prime
	}
	return internMix(h)
}

// flowCacheEntry is one published cache line: the exact key, the
// snapshot version it was computed against, and the recorded outcome.
// Entries are immutable after publication.
type flowCacheEntry struct {
	key flowKey
	ver uint64
	res Result
	// refs/nrefs attribute a hit to the rules the recorded walk matched
	// (per-flow counters). Valid whenever ver matches the reader's
	// snapshot: refs can only go stale through a commit, and a commit
	// bumps the version.
	refs  [ctrRefMax]uint32
	nrefs uint8
}

// flowCacheProbe bounds the linear probe window within a shard.
const flowCacheProbe = 4

// flowCacheShards is the number of slot arrays the fingerprint's low
// bits spread keys over (power of two).
const flowCacheShards = 8

// flowCache is the sharded exact-match microflow cache.
type flowCache struct {
	slotMask uint64
	// cellShift brings the top four bits of a key's home slot index to the
	// bottom of its fingerprint: the key's admission cell (ladder.go), so
	// the sampled 1/16 of keys live in the first 1/16 of every shard's
	// slots.
	cellShift uint8
	entries   int
	slots     [flowCacheShards][]atomic.Pointer[flowCacheEntry]
	adm       admission
}

// flowCacheCapacity returns the actual capacity a cache sized for the
// requested entries gets: rounded up to a power of two per shard,
// minimum 64 per shard. The pressure controller compares against it
// when regrowing toward the configured target.
func flowCacheCapacity(entries int) int {
	per := entries / flowCacheShards
	n := 64
	for n < per {
		n <<= 1
	}
	return n * flowCacheShards
}

// newFlowCacheTable sizes a cache for about the requested number of
// entries (rounded up to a power of two per shard, minimum 64).
func newFlowCacheTable(entries int) *flowCache {
	n := flowCacheCapacity(entries) / flowCacheShards
	c := &flowCache{slotMask: uint64(n - 1), cellShift: uint8(3 + bits.Len(uint(n-1)) - 4), entries: n * flowCacheShards}
	for i := range c.slots {
		c.slots[i] = make([]atomic.Pointer[flowCacheEntry], n)
	}
	return c
}

// cell returns the admission cell of the key with this fingerprint.
func (c *flowCache) cell(fp uint64) uint64 { return fp >> c.cellShift & (admitCells - 1) }

// lookup returns the cached entry for (key, ver), if present. The
// entry is immutable; callers read its Result and counter attribution
// in place. The hit/miss counters are left to the caller, so batch
// workers can accumulate them locally and flush once per batch.
func (c *flowCache) lookup(fp uint64, key *flowKey, ver uint64) (*flowCacheEntry, bool) {
	slots := c.slots[fp&(flowCacheShards-1)]
	base := fp >> 3
	for i := uint64(0); i < flowCacheProbe; i++ {
		e := slots[(base+i)&c.slotMask].Load()
		if e != nil && e.ver == ver && e.key == *key {
			return e, true
		}
	}
	return nil, false
}

// store publishes the walk outcome for (key, ver). It prefers an empty
// or stale slot in the probe window; with the window full of live
// entries it overwrites the slot the fingerprint points at (random
// replacement within the set). Fills race benignly: the losing entry is
// simply re-learned on a later miss.
func (c *flowCache) store(fp uint64, key *flowKey, ver uint64, res Result, refs *[ctrRefMax]uint32, nrefs int) {
	slots := c.slots[fp&(flowCacheShards-1)]
	base := fp >> 3
	victim := &slots[base&c.slotMask]
	for i := uint64(0); i < flowCacheProbe; i++ {
		slot := &slots[(base+i)&c.slotMask]
		e := slot.Load()
		if e == nil || e.ver != ver {
			victim = slot // empty or stale, our own stale-version entry included
			break
		}
		if e.key == *key {
			victim = slot // a racing fill of this key at this version: overwrite it
			break
		}
	}
	ne := &flowCacheEntry{key: *key, ver: ver, res: res, nrefs: uint8(nrefs)}
	if refs != nil {
		ne.refs = *refs
	}
	victim.Store(ne)
}

// CacheStats reports the microflow cache's effectiveness and size.
// Hits+Misses is every packet that reached the tier's rung of the
// ladder; Bypassed is how many of the Misses never probed because the
// admission rule had the tier bypassed (see ladder.go).
type CacheStats struct {
	Hits     uint64
	Misses   uint64
	Bypassed uint64
	Entries  int  // configured capacity (0 = cache disabled)
	Armed    bool // false while bypassed (or disabled)
}

// SetCacheSize installs a microflow cache of about the given number of
// entries in front of the multi-table walk, or removes it when entries
// is <= 0. Resizing replaces the cache (entries re-learn on their next
// packet) and resets the hit/miss counters. Safe to call concurrently
// with lookups. The size also becomes the pressure controller's regrow
// target: capacity shed under memory pressure is restored toward it
// when the pressure clears.
func (p *Pipeline) SetCacheSize(entries int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cacheTarget = entries
	if entries <= 0 {
		p.cache.Store(nil)
		return
	}
	p.cache.Store(newFlowCacheTable(entries))
}

// CacheStats returns the microflow cache counters. A disabled cache
// reports zero entries.
func (p *Pipeline) CacheStats() CacheStats {
	c := p.cache.Load()
	if c == nil {
		return CacheStats{}
	}
	st := CacheStats{Entries: c.entries, Armed: !c.adm.bypassed.Load()}
	st.Hits, st.Misses, st.Bypassed = c.adm.totals()
	return st
}
