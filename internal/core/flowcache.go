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
// travels through one interned pointer (see outcomeTable), so a torn
// read can never mix two results' fields. Fills serialise on the tier's
// mutex.
//
// A hit counts its flow on the entry that served it (cacheSlot.count),
// not on the rules' counter cells; the entry's pending count folds into
// those cells off the hot path (lifecycle.go) — when the entry is
// rewritten, when its tier is replaced (retire), and before every read
// of the counters.
//
// Validity is by version window: every published pipeline snapshot
// carries a version drawn from a monotonic counter, a slot is stamped with
// the version of the walk that filled it, and a snapshot accepts from
// either tier the stamps in its window [base, version] (window.holds). A
// stamp below the snapshot's own version is a hit only if no rule commit
// the snapshot logs since then overlaps the entry (megaflow.go); the
// reader that finds so re-stamps the entry. A commit writes no slot:
// eviction is by falling out of the window or failing the test, and
// stale slots are overwritten in place by later fills.
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
// width into bits no other field shares, so two headers the classifier
// could distinguish never fold to one cache key. The classifier reads a
// field at its registered width (Header.Get), and the megaflow tier's
// masks cover only those bits (keySpans), so slot bits above a field's
// width — the wire decoder stores them as they arrive — change no
// verdict: in the exact tier they only make a key of their own.
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
// mid-update; ver is the version of the snapshot the filling walk ran
// against (0 = empty), or a later one a reader revalidated it for
// (restamp); key holds the packed header key pre-masked by the owning
// tuple's mask; rewritten, meta and metaMask are the walk's rewrite,
// which only a revalidation reads: the key records the rewritten fields'
// original values while later tables matched the rewritten ones.
//
// hits and last are the entry's own flow counter: the packets it has
// served since its last fold into its rules' cells (drain), and the
// lifecycle second of the latest. They sit beside seq, on the line the
// probe has just loaded, so a hit counts without reaching the rules'
// counter cells. hits packs a write tag (hitsTagShift up), a 16-bit
// packet count and a 32-bit byte count; every write moves the tag on, so
// a reader that validated the previous entry can no longer count on this
// one (count) — unless it stalls across 65 536 rewrites of its slot, when
// the 16-bit tag comes round again.
type cacheSlot struct {
	seq       atomic.Uint64
	hits      atomic.Uint64
	last      atomic.Int64
	ver       atomic.Uint64
	rewritten atomic.Uint64
	meta      atomic.Uint64
	metaMask  atomic.Uint64
	key       [flowKeyWords]atomic.Uint64
	res       atomic.Pointer[Result]
	// refs/nrefs attribute a hit to the rules the recorded walk matched
	// (per-flow counters), written inside the seqlock window like every
	// other field. They can only go stale through a commit, and a reader
	// serves an entry across a commit only if no touched rule overlaps it
	// — and an entry whose matched rule was removed necessarily overlaps
	// that rule's shadow.
	nrefs atomic.Uint32
	refs  [ctrRefMax]atomic.Uint32
}

// The fields of a slot's hits word.
const (
	hitsTagShift  = 48
	hitsPktShift  = 32
	hitsPktMax    = 1<<16 - 1
	hitsByteMax   = 1<<32 - 1
	hitsCountMask = 1<<hitsTagShift - 1
)

// slotHit is what a probe hands the hit path besides the Result: the
// entry that served it, its hits word as read inside the seqlock window
// (the tag names the write the reader validated), and its counter
// attribution; and, for revalidation, the sequence and stamp it read and,
// when the stamp is older than the reader's snapshot, the walk's rewrite.
type slotHit struct {
	e      *cacheSlot
	h      uint64
	seq, v uint64
	rw     rewrite
	nrefs  int
	refs   [ctrRefMax]uint32
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

// window is the range [lo, hi] of fill versions a snapshot accepts from
// the tiers; hi is the snapshot's own version, which is also what its
// walks stamp.
type window struct{ lo, hi uint64 }

// holds reports whether a slot stamped v is live in the window: one
// subtract and compare, and a stamp of 0 (empty or evicted) is never
// held, since lo is at least 1.
func (w window) holds(v uint64) bool { return v-w.lo <= w.hi-w.lo }

// read's key compare is written out for exactly this many words.
const _ = uint(flowKeyWords-12) + uint(12-flowKeyWords)

// read is the seqlock reader: the slot's interned Result if the slot is
// stamped inside w and holds mk, with the slot, its hits word, sequence,
// stamp and counter attribution — and, for a stamp below w.hi, its
// rewrite — copied into hit; nil if not, or if a writer was mid-update or
// came by during the read.
func (e *cacheSlot) read(mk *flowKey, w window, hit *slotHit) *Result {
	seq := e.seq.Load()
	v := e.ver.Load()
	if seq&1 != 0 || !w.holds(v) {
		return nil
	}
	h := e.hits.Load()
	// The key compare is most of a hit's instructions; written out, it is
	// a third of the loop's.
	k := &e.key
	if k[0].Load() != mk[0] || k[1].Load() != mk[1] || k[2].Load() != mk[2] || k[3].Load() != mk[3] ||
		k[4].Load() != mk[4] || k[5].Load() != mk[5] || k[6].Load() != mk[6] || k[7].Load() != mk[7] ||
		k[8].Load() != mk[8] || k[9].Load() != mk[9] || k[10].Load() != mk[10] || k[11].Load() != mk[11] {
		return nil
	}
	rp := e.res.Load()
	nrefs := min(int(e.nrefs.Load()), ctrRefMax)
	for r := 0; r < nrefs; r++ {
		hit.refs[r] = e.refs[r].Load()
	}
	if v != w.hi {
		hit.rw = rewrite{fields: e.rewritten.Load(), meta: e.meta.Load(), mask: e.metaMask.Load()}
	}
	if e.seq.Load() != seq {
		return nil
	}
	hit.e, hit.h, hit.seq, hit.v, hit.nrefs = e, h, seq, v, nrefs
	return rp
}

// restamp moves the stamp of the entry hit read on to ver, once a reader
// has revalidated it for the snapshot of that version: under the tier's
// mutex, and only if the entry is still the write the reader read (seq)
// with the stamp it read (v) — a rewrite since, or a reader that moved
// the stamp first, keeps what it wrote. With the mutex busy it skips; the
// next reader tests the entry again.
func (c *flowCache) restamp(hit *slotHit, ver uint64) {
	if !c.mu.TryLock() {
		return
	}
	if e := hit.e; e.seq.Load() == hit.seq && e.ver.Load() == hit.v {
		e.ver.Store(ver)
	}
	c.mu.Unlock()
}

// count charges one served packet of n bytes, at lifecycle second now, to
// the entry a reader validated when its hits word read h. It reports
// false, charging nothing, when the entry has been rewritten or retired
// since: the caller charges the packet's rules instead. A field the
// packet would overflow is emptied, and its total, this packet included,
// returned as spill for the caller to charge the same way.
func (e *cacheSlot) count(h, n uint64, now int64) (ok bool, spillPkts, spillBytes uint64) {
	if e.last.Load() != now {
		e.last.Store(now) // before the count: a fold that takes the count sees it
	}
	tag := h &^ hitsCountMask
	for h&^hitsCountMask == tag {
		pkts, bytes := h>>hitsPktShift&hitsPktMax+1, h&hitsByteMax+n
		next := tag | pkts<<hitsPktShift | bytes
		if pkts > hitsPktMax || bytes > hitsByteMax {
			next, spillPkts, spillBytes = tag, pkts, bytes
		}
		if e.hits.CompareAndSwap(h, next) {
			return true, spillPkts, spillBytes
		}
		h = e.hits.Load()
	}
	return false, 0, 0
}

// drain empties the entry's count into its rules' cells (flowDir.credit)
// and moves its write tag on by step: 1 when the entry is about to be
// rewritten or is retired, so no reader that validated it can count on it
// again; 0 for a fold, which leaves the entry as it is. The caller holds
// the tier's mutex, so the tag and the refs cannot change under it.
func (e *cacheSlot) drain(d *flowDir, step uint64) {
	h := e.hits.Load()
	for !e.hits.CompareAndSwap(h, h&^hitsCountMask+step<<hitsTagShift) {
		h = e.hits.Load()
	}
	if h&hitsCountMask == 0 {
		return
	}
	var refs [ctrRefMax]uint32
	nrefs := min(int(e.nrefs.Load()), ctrRefMax)
	for r := 0; r < nrefs; r++ {
		refs[r] = e.refs[r].Load()
	}
	d.credit(&refs, nrefs, h>>hitsPktShift&hitsPktMax, h&hitsByteMax, e.last.Load())
}

// write is the seqlock writer; the tier's mutex admits one at a time. The
// entry it replaces hands its pending hits to its own rules first.
func (e *cacheSlot) write(d *flowDir, mk *flowKey, rw *rewrite, ver uint64, res *Result, refs *[ctrRefMax]uint32, nrefs int) {
	e.seq.Add(1) // odd: readers back off
	e.drain(d, 1)
	for w := range e.key {
		e.key[w].Store(mk[w])
	}
	e.rewritten.Store(rw.fields)
	e.meta.Store(rw.meta)
	e.metaMask.Store(rw.mask)
	e.res.Store(res)
	nrefs = min(nrefs, ctrRefMax)
	for r := 0; r < nrefs; r++ {
		e.refs[r].Store(refs[r])
	}
	e.nrefs.Store(uint32(nrefs))
	e.ver.Store(ver)
	e.seq.Add(1) // even: published
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
	// mu serialises fills, tuple creation and re-stamps; lookups are
	// lock-free (seqlock readers).
	mu sync.Mutex
	// tuples only ever grows, by republication. Every mask's tuple is sized
	// for the tier's full capacity rather than a share of it: arrays are
	// allocated when a mask first appears and the live mask population is
	// small (one per pipeline control-flow shape), so a hot population
	// concentrated under one mask can use the whole budget.
	tuples  atomic.Pointer[[]cacheTuple]
	entries int // slots per tuple: the tier's capacity (power of two)
	// retired is set (under mu) when the pipeline replaces the tier:
	// installs stop, and retire has drained every entry.
	retired bool
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
// returns the first entry that is live for snapshot s — this cache being
// s's tier tier — as its interned Result (nil on a miss), filling hit
// with what counting the packet needs. An entry stamped before s is live
// if the commits s logs since spare it, and is then re-stamped. First
// match wins: when two cached regions both cover a packet, mask
// correctness makes both results equal, so no priority arbitration is
// needed. The hit/miss counters are left to the caller, so batch workers
// can accumulate them locally and flush once per batch.
func (c *flowCache) lookup(k *flowKey, fp uint64, s *snapshot, tier int, hit *slotHit) *Result {
	var buf flowKey
	w := s.window()
	tuples := *c.tuples.Load()
	for t := range tuples {
		tp := &tuples[t]
		mk, base := tp.project(k, fp, &buf)
		for i := uint64(0); i < cacheProbe; i++ {
			rp := tp.slots[(base+i)&tp.slotMask].read(mk, w, hit)
			if rp == nil {
				continue
			}
			if hit.v != w.hi {
				if !s.spares(tier, c, t, mk, &tp.mask, hit) {
					continue
				}
				c.restamp(hit, w.hi)
			}
			return rp
		}
	}
	return nil
}

// install publishes the outcome of a walk against the snapshot whose
// window is w: (key & mask, mask) → res, stamped w.hi, with the walk's
// rewrite rw. res must be an interned (immutable, shared) Result pointer.
// A walk older than the latest commit fills like any other: its stamp
// says which commits a reader must test it against. It prefers a slot in
// the probe window that w does not hold (empty or stale), or the key's
// own entry; with the window full of other entries it overwrites the
// home slot (random replacement within the set). The overwritten entry's
// pending hits go to its rules in d. Installs allocate nothing, except
// that the first appearance of a new mask allocates its tuple.
func (c *flowCache) install(d *flowDir, k *flowKey, fp uint64, mask *flowMask, rw *rewrite, w window, res *Result, refs *[ctrRefMax]uint32, nrefs int) {
	if failpoint.Inject(failpoint.SiteCacheInstall) != nil {
		// A modelled install failure drops the entry; the walk already
		// ran, so the flow simply re-learns on a later miss.
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.retired {
		return // a straggler's fill into a replaced tier
	}
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
		var own slotHit
		if rp := e.read(mk, w, &own); !w.holds(e.ver.Load()) || rp != nil {
			victim = e // empty or stale, or our own entry to refresh
			break
		}
	}
	victim.write(d, mk, rw, w.hi, res, refs, nrefs)
}

// fold moves every entry's pending hits to its rules' cells in d,
// leaving the entries as they are. It holds the tier's mutex, so no entry
// is rewritten under it, and costs one load per slot plus a drain per
// entry that has counted since the last fold.
func (c *flowCache) fold(d *flowDir) {
	c.mu.Lock()
	defer c.mu.Unlock()
	tuples := *c.tuples.Load()
	for t := range tuples {
		slots := tuples[t].slots
		for i := range slots {
			if slots[i].hits.Load()&hitsCountMask != 0 {
				slots[i].drain(d, 0)
			}
		}
	}
}

// retire closes a tier the pipeline has replaced: installs stop, and
// every entry ever written is made unreadable (its sequence left odd) and
// drained into d with its tag moved on, so a reader still holding the
// tier misses, or fails its count and charges the rules directly, rather
// than counting where no fold will look. A slot never written has version
// 0 and no reader can validate it.
func (c *flowCache) retire(d *flowDir) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.retired = true
	tuples := *c.tuples.Load()
	for t := range tuples {
		slots := tuples[t].slots
		for i := range slots {
			if e := &slots[i]; e.seq.Load() != 0 {
				e.seq.Add(1)
				e.drain(d, 1)
			}
		}
	}
}

// TierStats reports one cache tier's effectiveness and shape.
// Hits+Misses is every packet that reached the tier's rung of the
// ladder; Bypassed is how many of the Misses never probed because the
// admission rule had the tier bypassed (see ladder.go).
type TierStats struct {
	Hits     uint64
	Misses   uint64
	Bypassed uint64
	Entries  int  // configured capacity (0 = tier disabled)
	Masks    int  // distinct masks (tuples) cached; 1 for the microflow tier
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
	var nc *flowCache
	if entries > 0 {
		nc = newFlowCache(tier, entries)
	}
	if old := p.tiers[tier].Swap(nc); old != nil {
		old.retire(p.dir)
	}
}

// tiersServe reports whether either cache tier is on and armed by its
// admission rule.
func (p *Pipeline) tiersServe() bool {
	for i := range p.tiers {
		if c := p.tiers[i].Load(); c != nil && !c.adm.bypassed.Load() {
			return true
		}
	}
	return false
}

// tierStats reads one tier's counters and shape. A disabled tier
// reports zero entries.
func (p *Pipeline) tierStats(tier int) TierStats {
	c := p.tiers[tier].Load()
	if c == nil {
		return TierStats{}
	}
	st := TierStats{Entries: c.entries, Masks: len(*c.tuples.Load()), Armed: !c.adm.bypassed.Load()}
	st.Hits, st.Misses, st.Bypassed = c.adm.totals()
	return st
}

// CacheStats returns the microflow tier's counters.
func (p *Pipeline) CacheStats() TierStats { return p.tierStats(tierExact) }

// MegaflowStats returns the megaflow tier's counters.
func (p *Pipeline) MegaflowStats() TierStats { return p.tierStats(tierMasked) }
