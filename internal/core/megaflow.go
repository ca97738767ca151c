package core

import (
	"sync"
	"sync/atomic"

	"ofmtl/internal/failpoint"
)

// This file implements the pipeline's megaflow cache: a masked
// (wildcard) fast path between the exact-match microflow tier and the
// full multi-table walk, in the style of the OVS megaflow cache.
//
// The microflow tier only absorbs exact repeats — every new flow still
// pays the full walk. The megaflow tier absorbs whole regions: when a
// walk runs with tracing enabled, every lookup layer records the union
// of header bits it actually consulted (see trace.go and the per-backend
// LookupTraced implementations), and the walk's outcome is installed
// under that mask. Any later packet agreeing with the original on the
// consulted bits is guaranteed the identical walk outcome — the
// mask-correctness invariant — so one cached entry short-circuits the
// traversal for, say, an entire /16 of new users.
//
// Layout: entries are grouped by mask into tuples (TupleChain-style
// per-mask-tuple hashing): each tuple owns one preallocated open-
// addressed slot array probed with the header key masked by the tuple's
// mask. A lookup probes every tuple; traced walks produce few distinct
// masks (one per control-flow shape of the pipeline), so the tuple list
// stays short. The tuple list is published through an atomic pointer and
// only ever grows; a full list drops new masks rather than evicting.
//
// Slots are seqlock-published in place: every field of an entry is an
// atomic, a writer makes the per-slot sequence odd for the duration of
// the write, and a reader retries (treats as miss) any slot whose
// sequence was odd or changed across the read. In-place publication is
// what keeps the install path allocation-free — unlike the microflow
// tier, which heap-allocates an immutable entry per fill — because
// megaflow installs happen on every traced miss, not only on repeats.
// The cached Result travels through one interned pointer (see
// resultPtrTable), so a torn read can never mix two results' fields.
//
// Invalidation is precise where the microflow tier's is wholesale: a
// committed transaction rebuilds the snapshot eagerly, projects every
// touched rule onto the packed key space (ruleShadow), evicts the cached
// megaflows the rule can affect, and re-stamps the survivors to the new
// snapshot version — all before Commit returns, and with exactly one
// snapshot version bump per commit. Entries whose version does not match
// the reader's snapshot are dead and get overwritten by later installs.

// megaflowProbe bounds the linear probe window within a tuple.
const megaflowProbe = 4

// megaflowMaxTuples bounds the distinct masks cached at once. Masks
// correspond to pipeline control-flow shapes, not flows, so the
// population is small; a full list drops new masks (the walk still
// runs, nothing breaks).
const megaflowMaxTuples = 16

// megaflowEntry is one seqlock-published slot. seq is odd while a
// writer is mid-update; ver is the snapshot version the entry is valid
// for (0 = empty/evicted); key holds the packed header key pre-masked
// by the owning tuple's mask; rewritten is the bitmask of FieldIDs the
// recorded walk mutated mid-walk (SetField / WriteMetadata), which the
// eviction overlap test must treat conservatively because the key
// records those fields' original values while later tables matched the
// rewritten ones.
type megaflowEntry struct {
	seq       atomic.Uint64
	ver       atomic.Uint64
	rewritten atomic.Uint64
	key       [flowKeyWords]atomic.Uint64
	res       atomic.Pointer[Result]
	// refs/nrefs attribute a hit to the rules the recorded walk matched
	// (per-flow counters), written inside the seqlock window like every
	// other field. Survivor re-stamping keeps them valid: an entry whose
	// matched rule was removed necessarily overlaps that rule's shadow
	// (the recorded packet lay in both) and is evicted, so a re-stamped
	// survivor only ever references surviving rules.
	nrefs atomic.Uint32
	refs  [ctrRefMax]atomic.Uint32
}

// megaflowTuple is one mask's slot array.
type megaflowTuple struct {
	mask     flowMask
	slotMask uint64
	slots    []megaflowEntry
}

// maskedFingerprint hashes the packed key under a tuple's mask without
// materialising the masked key (FNV-1a, finalised with internMix — the
// masked analogue of flowKey.fingerprint).
func maskedFingerprint(k *flowKey, mask *flowMask) uint64 {
	const prime = 0x100000001B3
	h := uint64(0xCBF29CE484222325)
	for w := 0; w < flowKeyWords; w++ {
		h ^= k[w] & mask[w]
		h *= prime
	}
	return internMix(h)
}

// megaflowCache is the masked-tier cache.
type megaflowCache struct {
	// mu serialises installs, tuple creation and commit sweeps; lookups
	// are lock-free (seqlock readers).
	mu       sync.Mutex
	tuples   atomic.Pointer[[]*megaflowTuple]
	perTuple int // slots per tuple (power of two)
	entries  int // configured capacity across tuples
	adm      admission
}

// megaflowCapacity returns the actual capacity a tier sized for the
// requested entries gets: rounded up to a power of two, minimum 64.
// The pressure controller compares against it when regrowing toward
// the configured target.
func megaflowCapacity(entries int) int {
	n := 64
	for n < entries {
		n <<= 1
	}
	return n
}

// newMegaflowCache sizes a cache for the requested number of entries
// (rounded up to a power of two, minimum 64). Every mask's tuple is
// sized for the full configured capacity rather than a 1/16 share:
// tuple arrays are allocated lazily when a mask first appears and the
// live mask population is small (one per pipeline control-flow shape),
// so a hot region population concentrated under one mask can use the
// whole budget.
func newMegaflowCache(entries int) *megaflowCache {
	n := megaflowCapacity(entries)
	return &megaflowCache{perTuple: n, entries: n}
}

// megaflowCell returns the admission cell of the key with this (unmasked)
// fingerprint: its top four bits.
func megaflowCell(fp uint64) uint64 { return fp >> 60 }

// lookup probes every tuple with the key masked by the tuple's mask and
// returns the first valid entry's Result, copying the entry's counter
// attribution into refs. First match wins: when two cached regions both
// cover a packet, the invariant makes both results equal, so no
// priority arbitration is needed.
func (m *megaflowCache) lookup(k *flowKey, ver uint64, refs *[ctrRefMax]uint32) (Result, int, bool) {
	tuples := m.tuples.Load()
	if tuples == nil {
		return Result{}, 0, false
	}
	for _, tp := range *tuples {
		fp := maskedFingerprint(k, &tp.mask)
		base := fp
		for i := uint64(0); i < megaflowProbe; i++ {
			e := &tp.slots[(base+i)&tp.slotMask]
			seq := e.seq.Load()
			if seq&1 != 0 {
				continue // mid-write
			}
			if e.ver.Load() != ver {
				continue
			}
			match := true
			for w := 0; w < flowKeyWords; w++ {
				if e.key[w].Load() != k[w]&tp.mask[w] {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			rp := e.res.Load()
			nrefs := int(e.nrefs.Load())
			if nrefs > ctrRefMax {
				nrefs = ctrRefMax
			}
			for r := 0; r < nrefs; r++ {
				refs[r] = e.refs[r].Load()
			}
			if rp == nil || e.seq.Load() != seq {
				continue // torn read; treat as miss
			}
			return *rp, nrefs, true
		}
	}
	return Result{}, 0, false
}

// install publishes a traced walk outcome: (key & mask, mask) → res,
// valid for snapshot version ver. res must be an interned (immutable,
// shared) Result pointer. Steady-state installs allocate nothing; only
// the first appearance of a new mask allocates its tuple.
func (m *megaflowCache) install(k *flowKey, mask *flowMask, rewritten uint64, ver uint64, res *Result, refs *[ctrRefMax]uint32, nrefs int) {
	if failpoint.Inject(failpoint.SiteCacheInstall) != nil {
		// A modelled install failure drops the entry; the walk already
		// ran, so the region simply re-learns on a later miss.
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	tuples := m.tuples.Load()
	var tp *megaflowTuple
	if tuples != nil {
		for _, t := range *tuples {
			if t.mask == *mask {
				tp = t
				break
			}
		}
	}
	if tp == nil {
		n := 0
		if tuples != nil {
			n = len(*tuples)
		}
		if n >= megaflowMaxTuples {
			return // mask population full; drop (the walk already ran)
		}
		tp = &megaflowTuple{
			mask:     *mask,
			slotMask: uint64(m.perTuple - 1),
			slots:    make([]megaflowEntry, m.perTuple),
		}
		nl := make([]*megaflowTuple, n+1)
		if tuples != nil {
			copy(nl, *tuples)
		}
		nl[n] = tp
		m.tuples.Store(&nl)
	}
	fp := maskedFingerprint(k, &tp.mask)
	victim := &tp.slots[fp&tp.slotMask]
	for i := uint64(0); i < megaflowProbe; i++ {
		e := &tp.slots[(fp+i)&tp.slotMask]
		if e.ver.Load() != ver {
			victim = e // empty or stale
			break
		}
		same := true
		for w := 0; w < flowKeyWords; w++ {
			if e.key[w].Load() != k[w]&tp.mask[w] {
				same = false
				break
			}
		}
		if same {
			victim = e // refresh our own entry in place
			break
		}
	}
	victim.seq.Add(1) // odd: readers back off
	for w := 0; w < flowKeyWords; w++ {
		victim.key[w].Store(k[w] & tp.mask[w])
	}
	victim.rewritten.Store(rewritten)
	victim.res.Store(res)
	if nrefs > ctrRefMax {
		nrefs = ctrRefMax
	}
	for r := 0; r < nrefs; r++ {
		victim.refs[r].Store(refs[r])
	}
	victim.nrefs.Store(uint32(nrefs))
	victim.ver.Store(ver)
	victim.seq.Add(1) // even: published
}

// sweep runs a commit's precise invalidation: every entry valid at
// prevVer is tested against the committed rules' shadows; overlapping
// entries are evicted, the rest re-stamped to newVer so they survive the
// snapshot rebuild. Entries at any other version are dead already and
// left alone. Caller is the committing writer; installs serialise on mu.
func (m *megaflowCache) sweep(shadows []ruleShadow, prevVer, newVer uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	tuples := m.tuples.Load()
	if tuples == nil {
		return
	}
	var key flowMask
	for _, tp := range *tuples {
		for i := range tp.slots {
			e := &tp.slots[i]
			if e.ver.Load() != prevVer {
				continue
			}
			for w := 0; w < flowKeyWords; w++ {
				key[w] = e.key[w].Load()
			}
			rewritten := e.rewritten.Load()
			evict := false
			for si := range shadows {
				if shadows[si].overlapsMegaflow(&key, &tp.mask, rewritten) {
					evict = true
					break
				}
			}
			e.seq.Add(1)
			if evict {
				e.ver.Store(0)
			} else {
				e.ver.Store(newVer)
			}
			e.seq.Add(1)
		}
	}
}

// invalidateAll evicts every cached entry (tuples and counters are
// kept). It backs tests and resizes; the data plane never needs it —
// version mismatches already dead-end stale entries.
func (m *megaflowCache) invalidateAll() {
	m.mu.Lock()
	defer m.mu.Unlock()
	tuples := m.tuples.Load()
	if tuples == nil {
		return
	}
	for _, tp := range *tuples {
		for i := range tp.slots {
			e := &tp.slots[i]
			e.seq.Add(1)
			e.ver.Store(0)
			e.seq.Add(1)
		}
	}
}

// MegaflowStats reports the megaflow cache's effectiveness and shape;
// Bypassed and Armed read as in CacheStats.
type MegaflowStats struct {
	Hits     uint64
	Misses   uint64
	Bypassed uint64
	Entries  int  // configured capacity (0 = tier disabled)
	Masks    int  // distinct masks (tuples) cached
	Armed    bool // false while bypassed (or disabled)
}

// SetMegaflowSize installs a megaflow (wildcard) cache tier of about the
// given number of entries between the microflow cache and the multi-
// table walk, or removes the tier when entries is <= 0. Resizing
// replaces the cache (regions re-learn on their next miss) and resets
// the counters. Safe to call concurrently with lookups. The size also
// becomes the pressure controller's regrow target, like SetCacheSize.
func (p *Pipeline) SetMegaflowSize(entries int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.megaTarget = entries
	if entries <= 0 {
		p.mega.Store(nil)
		return
	}
	p.mega.Store(newMegaflowCache(entries))
}

// MegaflowStats returns the megaflow tier counters. A disabled tier
// reports zero entries.
func (p *Pipeline) MegaflowStats() MegaflowStats {
	m := p.mega.Load()
	if m == nil {
		return MegaflowStats{}
	}
	st := MegaflowStats{Entries: m.entries, Armed: !m.adm.bypassed.Load()}
	st.Hits, st.Misses, st.Bypassed = m.adm.totals()
	if tuples := m.tuples.Load(); tuples != nil {
		st.Masks = len(*tuples)
	}
	return st
}
