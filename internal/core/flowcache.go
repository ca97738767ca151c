package core

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"ofmtl/internal/failpoint"
	"ofmtl/internal/openflow"
)

// This file implements the pipeline's flow cache: the fast path in front
// of the multi-table walk. Real traffic is heavily flow-skewed, so the
// first packet of a flow (or of a region of flows) pays the full
// multi-table lookup cost the paper analyses and later ones are served by
// a hash probe.
//
// There is one structure, used twice. A flowCache groups entries by mask
// into tuples (TupleChain-style per-mask-tuple hashing): each tuple owns
// one open-addressed slot array, probed with the packed header key masked
// by the tuple's mask. The exact-match microflow tier (SetCacheSize) is a
// flowCache holding the single tuple whose mask is all ones, preallocated,
// so a packet's own fingerprint addresses it. The masked megaflow tier
// (SetMegaflowSize) is a flowCache that learns its masks from traced
// walks (megaflow.go). The ladder (ladder.go) probes the exact tier
// first, then the masked one, then walks and fills both.
//
// Slots are seqlock-published in place: every field of a slot is an
// atomic, a writer makes the per-slot sequence odd for the duration of
// the write, and a reader treats as a miss any slot whose sequence was odd
// or changed across the read. In-place publication keeps fills
// allocation-free, and the hit path takes no lock. The cached Result
// travels through one interned pointer (see resultPtrTable), so a torn
// read can never mix two results' fields. Fills serialise on the tier's
// mutex.
//
// Validity is by version: every published pipeline snapshot carries a
// version drawn from a monotonic counter, and a slot is live only for the
// snapshot version stamped on it. A flow-mod forces a new snapshot with a
// new version, so every exact entry goes stale at once — the conservative
// rule, with no flush traffic on the hot path — while the masked tier's
// commit sweep re-stamps the entries the commit cannot affect
// (megaflow.go). Stale slots are overwritten in place by later fills.
//
// The cache stores classification outcomes, not provisioned lookup
// memory: like the snapshot views, it models the second port of a
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

// fullMask is the exact tier's mask: every bit of the key is consulted.
var fullMask = func() (m flowMask) {
	for w := range m {
		m[w] = ^uint64(0)
	}
	return m
}()

// cacheProbe bounds the linear probe window within a tuple.
const cacheProbe = 4

// cacheSlot is one seqlock-published entry. seq is odd while a writer is
// mid-update; ver is the snapshot version the entry is valid for (0 =
// empty/evicted); key holds the packed header key pre-masked by the owning
// tuple's mask; rewritten is the bitmask of FieldIDs the recorded walk
// mutated mid-walk (SetField / WriteMetadata), which the masked tier's
// eviction overlap test must treat conservatively because the key records
// those fields' original values while later tables matched the rewritten
// ones.
type cacheSlot struct {
	seq       atomic.Uint64
	ver       atomic.Uint64
	rewritten atomic.Uint64
	key       [flowKeyWords]atomic.Uint64
	res       atomic.Pointer[Result]
	// refs/nrefs attribute a hit to the rules the recorded walk matched
	// (per-flow counters), written inside the seqlock window like every
	// other field. They can only go stale through a commit, which either
	// kills the entry (version mismatch) or, in the masked tier's sweep,
	// re-stamps it only if no touched rule overlaps it — and an entry whose
	// matched rule was removed necessarily overlaps that rule's shadow.
	nrefs atomic.Uint32
	refs  [ctrRefMax]atomic.Uint32
}

// cacheTuple is one mask's slot array.
type cacheTuple struct {
	slots    []cacheSlot
	slotMask uint64
	exact    bool // mask is fullMask: the key's own fingerprint addresses the slots
	mask     flowMask
}

func newCacheTuple(mask *flowMask, slots int) cacheTuple {
	return cacheTuple{slots: make([]cacheSlot, slots), slotMask: uint64(slots - 1), exact: *mask == fullMask, mask: *mask}
}

// project returns the key the tuple files k under — k under the tuple's
// mask, built in buf — and its fingerprint, where the probe window starts.
// Under the full mask that is k itself and the fingerprint the caller
// already holds: no second hash.
func (tp *cacheTuple) project(k *flowKey, fp uint64, buf *flowKey) (*flowKey, uint64) {
	if tp.exact {
		return k, fp
	}
	for w := range buf {
		buf[w] = k[w] & tp.mask[w]
	}
	return buf, buf.fingerprint()
}

// read's key compare is written out for exactly this many words.
const _ = uint(flowKeyWords-12) + uint(12-flowKeyWords)

// read is the seqlock reader: the slot's interned Result if the slot is
// live at ver and holds mk, with its counter attribution copied into refs;
// nil if not, or if a writer was mid-update or came by during the read.
func (e *cacheSlot) read(mk *flowKey, ver uint64, refs *[ctrRefMax]uint32) (*Result, int) {
	seq := e.seq.Load()
	if seq&1 != 0 || e.ver.Load() != ver {
		return nil, 0
	}
	// The key compare is most of a hit's instructions; written out, it is
	// a third of the loop's.
	k := &e.key
	if k[0].Load() != mk[0] || k[1].Load() != mk[1] || k[2].Load() != mk[2] || k[3].Load() != mk[3] ||
		k[4].Load() != mk[4] || k[5].Load() != mk[5] || k[6].Load() != mk[6] || k[7].Load() != mk[7] ||
		k[8].Load() != mk[8] || k[9].Load() != mk[9] || k[10].Load() != mk[10] || k[11].Load() != mk[11] {
		return nil, 0
	}
	rp := e.res.Load()
	nrefs := min(int(e.nrefs.Load()), ctrRefMax)
	for r := 0; r < nrefs; r++ {
		refs[r] = e.refs[r].Load()
	}
	if e.seq.Load() != seq {
		return nil, 0
	}
	return rp, nrefs
}

// write is the seqlock writer; the tier's mutex admits one at a time.
func (e *cacheSlot) write(mk *flowKey, rewritten, ver uint64, res *Result, refs *[ctrRefMax]uint32, nrefs int) {
	e.seq.Add(1) // odd: readers back off
	for w := range e.key {
		e.key[w].Store(mk[w])
	}
	e.rewritten.Store(rewritten)
	e.res.Store(res)
	nrefs = min(nrefs, ctrRefMax)
	for r := 0; r < nrefs; r++ {
		e.refs[r].Store(refs[r])
	}
	e.nrefs.Store(uint32(nrefs))
	e.ver.Store(ver)
	e.seq.Add(1) // even: published
}

// restamp moves a live slot to another version, or evicts it (ver 0).
func (e *cacheSlot) restamp(ver uint64) {
	e.seq.Add(1)
	e.ver.Store(ver)
	e.seq.Add(1)
}

// The two tiers, in probe order.
const (
	tierExact = iota
	tierMasked
	numTiers
)

// cacheMaxTuples bounds the distinct masks a tier caches at once. Masks
// correspond to pipeline control-flow shapes, not flows, so the
// population is small; a full list drops new masks (the walk still
// runs, nothing breaks).
const cacheMaxTuples = 16

// Capacity floors per tier: the smallest tuple a tier is built with, and
// what the pressure controller never shrinks below (budget.go).
const (
	microflowFloorEntries = 512
	megaflowFloorEntries  = 64
)

var tierFloor = [numTiers]int{tierExact: microflowFloorEntries, tierMasked: megaflowFloorEntries}

// flowCache is one cache tier.
type flowCache struct {
	// mu serialises fills, tuple creation and commit sweeps; lookups are
	// lock-free (seqlock readers).
	mu sync.Mutex
	// tuples only ever grows, by republication. Every mask's tuple is sized
	// for the tier's full capacity rather than a share of it: arrays are
	// allocated when a mask first appears and the live mask population is
	// small (one per pipeline control-flow shape), so a hot population
	// concentrated under one mask can use the whole budget.
	tuples  atomic.Pointer[[]cacheTuple]
	entries int // slots per tuple: the tier's capacity (power of two)
	// cellShift brings a key's admission cell (ladder.go) to the bottom of
	// its fingerprint. Exact tier: the top four bits of the key's home slot
	// index, so the sampled 1/16 of keys live in the first 1/16 of the
	// slots. Masked tier: the fingerprint's top four bits — regions are
	// unknown before the walk, so it is sampled by exact key.
	cellShift uint8
	adm       admission
}

// tierCapacity returns the capacity a tier sized for the requested entries
// gets: rounded up to a power of two, no less than the tier's floor. The
// pressure controller compares against it when regrowing toward the
// configured target.
func tierCapacity(tier, entries int) int {
	n := tierFloor[tier]
	for n < entries {
		n <<= 1
	}
	return n
}

// newFlowCache builds a tier of about the requested number of entries:
// the exact tier with its one tuple in place, the masked tier empty.
func newFlowCache(tier, entries int) *flowCache {
	n := tierCapacity(tier, entries)
	c := &flowCache{entries: n, cellShift: 60}
	tuples := []cacheTuple{}
	if tier == tierExact {
		c.cellShift = uint8(bits.Len(uint(n-1)) - 4)
		tuples = append(tuples, newCacheTuple(&fullMask, n))
	}
	c.tuples.Store(&tuples)
	return c
}

// cell returns the admission cell of the key with this fingerprint.
func (c *flowCache) cell(fp uint64) uint64 { return fp >> c.cellShift & (admitCells - 1) }

// lookup probes every tuple with the key masked by the tuple's mask and
// returns the first live entry's interned Result (nil on a miss), copying
// the entry's counter attribution into refs. First match wins: when two
// cached regions both cover a packet, mask correctness makes both results
// equal, so no priority arbitration is needed. The hit/miss counters are
// left to the caller, so batch workers can accumulate them locally and
// flush once per batch.
func (c *flowCache) lookup(k *flowKey, fp, ver uint64, refs *[ctrRefMax]uint32) (*Result, int) {
	var buf flowKey
	tuples := *c.tuples.Load()
	for t := range tuples {
		tp := &tuples[t]
		mk, base := tp.project(k, fp, &buf)
		for i := uint64(0); i < cacheProbe; i++ {
			if rp, nrefs := tp.slots[(base+i)&tp.slotMask].read(mk, ver, refs); rp != nil {
				return rp, nrefs
			}
		}
	}
	return nil, 0
}

// install publishes a walk outcome: (key & mask, mask) → res, valid for
// snapshot version ver. res must be an interned (immutable, shared) Result
// pointer. It prefers an empty or stale slot in the probe window, or the
// key's own entry; with the window full of other live entries it
// overwrites the home slot (random replacement within the set). Installs
// allocate nothing, except that the first appearance of a new mask
// allocates its tuple.
func (c *flowCache) install(k *flowKey, fp uint64, mask *flowMask, rewritten, ver uint64, res *Result, refs *[ctrRefMax]uint32, nrefs int) {
	if failpoint.Inject(failpoint.SiteCacheInstall) != nil {
		// A modelled install failure drops the entry; the walk already
		// ran, so the flow simply re-learns on a later miss.
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	tuples := *c.tuples.Load()
	t := 0
	for t < len(tuples) && tuples[t].mask != *mask {
		t++
	}
	if t == len(tuples) {
		if t >= cacheMaxTuples {
			return // mask population full; drop (the walk already ran)
		}
		grown := append(tuples[:t:t], newCacheTuple(mask, c.entries))
		c.tuples.Store(&grown)
		tuples = grown
	}
	tp := &tuples[t]
	var buf flowKey
	mk, base := tp.project(k, fp, &buf)
	victim := &tp.slots[base&tp.slotMask]
	for i := uint64(0); i < cacheProbe; i++ {
		e := &tp.slots[(base+i)&tp.slotMask]
		var own [ctrRefMax]uint32
		if rp, _ := e.read(mk, ver, &own); e.ver.Load() != ver || rp != nil {
			victim = e // empty or stale, or our own entry to refresh
			break
		}
	}
	victim.write(mk, rewritten, ver, res, refs, nrefs)
}

// CacheStats reports the microflow tier's effectiveness and size.
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

// MegaflowStats reports the megaflow tier's effectiveness and shape;
// the fields it shares with CacheStats read the same.
type MegaflowStats struct {
	Hits     uint64
	Misses   uint64
	Bypassed uint64
	Entries  int  // configured capacity (0 = tier disabled)
	Masks    int  // distinct masks (tuples) cached
	Armed    bool // false while bypassed (or disabled)
}

// SetCacheSize installs an exact-match microflow tier of about the given
// number of entries in front of the multi-table walk, or removes it when
// entries is <= 0. Resizing replaces the tier (entries re-learn on their
// next packet) and resets the hit/miss counters. Safe to call
// concurrently with lookups. The size also becomes the pressure
// controller's regrow target: capacity shed under memory pressure is
// restored toward it when the pressure clears.
func (p *Pipeline) SetCacheSize(entries int) { p.setTierSize(tierExact, entries) }

// SetMegaflowSize is SetCacheSize for the masked (wildcard) megaflow tier
// between the microflow tier and the walk.
func (p *Pipeline) SetMegaflowSize(entries int) { p.setTierSize(tierMasked, entries) }

func (p *Pipeline) setTierSize(tier, entries int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tierTarget[tier] = entries
	if entries <= 0 {
		p.tiers[tier].Store(nil)
		return
	}
	p.tiers[tier].Store(newFlowCache(tier, entries))
}

// tierStats reads one tier's counters and shape.
func (p *Pipeline) tierStats(tier int) MegaflowStats {
	c := p.tiers[tier].Load()
	if c == nil {
		return MegaflowStats{}
	}
	st := MegaflowStats{Entries: c.entries, Masks: len(*c.tuples.Load()), Armed: !c.adm.bypassed.Load()}
	st.Hits, st.Misses, st.Bypassed = c.adm.totals()
	return st
}

// CacheStats returns the microflow tier's counters. A disabled tier
// reports zero entries.
func (p *Pipeline) CacheStats() CacheStats {
	st := p.tierStats(tierExact)
	return CacheStats{Hits: st.Hits, Misses: st.Misses, Bypassed: st.Bypassed, Entries: st.Entries, Armed: st.Armed}
}

// MegaflowStats returns the megaflow tier's counters, likewise.
func (p *Pipeline) MegaflowStats() MegaflowStats { return p.tierStats(tierMasked) }
