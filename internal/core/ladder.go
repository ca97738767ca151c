package core

import (
	"sync"
	"sync/atomic"

	"ofmtl/internal/openflow"
)

// This file holds the one tier ladder every lookup climbs — a probe per
// flow-cache tier, the multi-table walk, fills on the way back —
// and the admission rule that decides, per tier, whether a packet
// touches the tier at all.
//
// Admission. A cache tier pays for itself on traffic with hit share h iff
//
//	probe + (1−h)·install < h·walk   ⇔   h > (probe+install)/(walk+install)
//
// and what the terms cost depends on whether the tier is working. On the
// PR 12 ledger a thrashing tier (lpm256k_uniform: slots and per-miss
// entries are DRAM and GC traffic) pays probe+install ≈ 900–1050 ns
// around a 1350 ns walk, break-even h ≈ 0.45; a resident one (proto_zipf)
// pays ≈ 30 + 100 ns around a 900 ns walk, break-even h ≈ 0.13. So a tier
// is bypassed when its hit share falls under 1/4 (below that it loses
// ≥ 500 ns/pkt when thrashing and wins ≤ 100 when resident) and re-armed
// when the share clears 1/2 (above every measured break-even); the 2×
// band between is the hysteresis that keeps a commit whose rules overlap
// a tier's whole population from flapping it.
//
// A bypassed tier is skipped: no probe, no install, and with the megaflow
// tier skipped the walk runs untraced. The exception is the sample: keys
// in a fixed 1/16 slice of hash space use the tier whatever its state,
// and the verdicts are read off their hit share alone. Sampling hash
// space rather than every 16th packet keeps a flow wholly inside or
// wholly outside the sample, so the sample sees the locality the whole
// tier would; and because the sample never stops using the tier, its
// entries are warm across state changes — a re-armed tier is not judged
// on the compulsory misses of the other 15/16. A commit keeps them warm
// too, as it keeps every entry its rules do not overlap (megaflow.go),
// while either tier serves. A commit while both tiers are bypassed or
// off wipes the samples with the rest: it retracts the snapshot instead
// of logging itself (tx.go), so the next snapshot opens a fresh window.
//
// Mechanics: each tier's counters are spread over 16 cells and a key
// counts on the cell its hash selects, so the sample is simply cell 0.
// The exact tier's cell is the top four bits of the key's home slot index
// (flowCache.cell): sampled keys compete for their own 1/16 of the slots
// in either state, which makes the sample a scale model of the tier. The
// masked tier is sampled by exact key (the fingerprint's top four bits),
// not by region — regions are unknown before the walk. Misses are
// the clock — bypassed packets count as misses, so it ticks in either
// state: a cell's miss counter crossing a multiple of admitCheck
// evaluates, and a verdict needs admitWindow sampled lookups since the
// last one. Hits trigger nothing.
//
// Known limit: a bypassed tier re-arms only on what the sample sees.
// Traffic that collapses onto a few heavy keys, none of them sampled,
// leaves it bypassed until the mix changes.
const (
	admitCells       = 16                       // counter cells per tier; cell 0, 1/16 of hash space, is the sample
	admitWindow      = 1024                     // sampled lookups per verdict
	admitCheck       = admitWindow / admitCells // a cell's misses between evaluations
	admitBypassBelow = 4                        // bypass when hits·4 < lookups
	admitRearmAt     = 2                        // re-arm when hits·2 ≥ lookups
)

// tierCounters is one padded cell of a tier's counters. bypassed counts
// the misses that never probed.
type tierCounters struct {
	hits, misses, bypassed atomic.Uint64
	_                      [40]byte
}

// tierCount is a plain count of the same three events.
type tierCount struct{ hits, misses, bypassed uint64 }

// tierDelta is a batch worker's private share of a tier's counters,
// folded into the tier once per batch: [0] the sample cell's, [1] every
// other cell's.
type tierDelta [2]tierCount

// admission is a tier's counters and its armed/bypassed state.
type admission struct {
	ctr      [admitCells]tierCounters
	bypassed atomic.Bool

	mu                 sync.Mutex // one evaluation at a time; losers of TryLock skip
	baseHits, baseSeen uint64     // the sample's totals at the last verdict
}

// use reports whether a packet whose key counts on cell touches the tier.
func (a *admission) use(cell uint64) bool { return !a.bypassed.Load() || cell == 0 }

// hit counts a hit: on the key's cell, or on a batch worker's delta.
func (a *admission) hit(cell uint64, local *tierDelta) {
	if local != nil {
		local[min(cell, 1)].hits++
		return
	}
	a.ctr[cell].hits.Add(1)
}

// miss counts a packet the tier did not serve; probed is false when the
// tier was bypassed for it.
func (a *admission) miss(cell uint64, local *tierDelta, probed bool) {
	var bypassed uint64
	if !probed {
		bypassed = 1
	}
	if local != nil {
		l := &local[min(cell, 1)]
		l.misses++
		l.bypassed += bypassed
		return
	}
	a.add(cell, tierCount{misses: 1, bypassed: bypassed})
}

// add folds counts into a cell and runs the clock.
func (a *admission) add(cell uint64, d tierCount) {
	c := &a.ctr[cell]
	if d.hits > 0 {
		c.hits.Add(d.hits)
	}
	if d.bypassed > 0 {
		c.bypassed.Add(d.bypassed)
	}
	if d.misses > 0 {
		if n := c.misses.Add(d.misses); n/admitCheck != (n-d.misses)/admitCheck {
			a.evaluate()
		}
	}
}

// flush folds a batch worker's delta into the sample cell and one of the
// others.
func (a *admission) flush(worker int, d *tierDelta) {
	a.add(0, d[0])
	a.add(1+uint64(worker)%(admitCells-1), d[1])
	*d = tierDelta{}
}

// totals sums the counters across cells.
func (a *admission) totals() (hits, misses, bypassed uint64) {
	for i := range a.ctr {
		hits += a.ctr[i].hits.Load()
		misses += a.ctr[i].misses.Load()
		bypassed += a.ctr[i].bypassed.Load()
	}
	return hits, misses, bypassed
}

// carry seeds a replacement tier's counters with old's totals (on an
// unsampled cell: the new tier's sample starts empty, like its slots).
func (a *admission) carry(old *admission) {
	hits, misses, bypassed := old.totals()
	a.ctr[1].hits.Store(hits)
	a.ctr[1].misses.Store(misses)
	a.ctr[1].bypassed.Store(bypassed)
}

// evaluate issues a verdict once the sample has seen a window of lookups
// since the last one.
func (a *admission) evaluate() {
	if !a.mu.TryLock() {
		return
	}
	defer a.mu.Unlock()
	hits := a.ctr[0].hits.Load()
	seen := hits + a.ctr[0].misses.Load()
	got, n := hits-a.baseHits, seen-a.baseSeen
	if n < admitWindow {
		return
	}
	if a.bypassed.Load() {
		a.bypassed.Store(got*admitRearmAt < n)
	} else {
		a.bypassed.Store(got*admitBypassBelow < n)
	}
	a.baseHits, a.baseSeen = hits, seen
}

// ladder is the lookup state one packet — or one whole batch — runs
// against: a snapshot, the optional cache tiers in front of it in probe
// order (exact, masked; nil = off), and the flow directory that counts
// what matched.
type ladder struct {
	s     *snapshot
	tiers [numTiers]*flowCache
	d     *flowDir
}

// pending is what the ladder keeps of a packet that missed every tier it
// used, for the walk's fills: its key, fingerprint and counter shard, and
// which tiers it used.
type pending struct {
	k     flowKey
	fp    uint64
	shard uint32
	use   [numTiers]bool
}

// exec classifies one header alone into *res (in place: a Result is a
// cache line, and a hit copies it once): Pipeline.Execute's ladder. Scratch
// comes from walkerPool, tier counters land on the key's admission cell
// and flow counters on the shard the key's fingerprint selects.
func (l *ladder) exec(h *openflow.Header, res *Result) {
	var m pending
	if l.probe(h, nil, &m, res) {
		return
	}
	w := walkerPool.Get().(*walker)
	w.size(1)
	w.begin(0, h, l.s, m.use[tierMasked])
	slot := [1]int32{0}
	l.s.walk(w, slot[:])
	l.finish(&m, h, &w.sc[0], res)
	w.release(1)
	walkerPool.Put(w)
}

// execGroup classifies up to walkGroup consecutive headers of a batch into
// res: a batch worker's ladder, with the worker's context — own walker,
// own counter shard, tier counters kept locally until the batch ends.
// Each header climbs its tier rungs as exec's does; the misses then walk
// together (snapshot.walk), each in the walker slot of its index, and
// their flow counters and fills follow in packet order.
func (l *ladder) execGroup(hs []*openflow.Header, ctx *execCtx, res []Result) {
	w := &ctx.w
	w.size(len(hs))
	walks := ctx.walks[:0]
	for i, h := range hs {
		m := &ctx.miss[i]
		if l.probe(h, ctx, m, &res[i]) {
			continue
		}
		w.begin(i, h, l.s, m.use[tierMasked])
		walks = append(walks, int32(i))
	}
	if len(walks) == 0 {
		return
	}
	l.s.walk(w, walks)
	// The flow counters' cells, loaded together before the touches that
	// write them one at a time (flowDir.warm).
	if l.d != nil {
		for _, i := range walks {
			if sc := &w.sc[i]; sc.nrefs > 0 {
				l.d.warm(ctx.miss[i].shard, &sc.refs, sc.nrefs)
			}
		}
	}
	for _, i := range walks {
		l.finish(&ctx.miss[i], hs[i], &w.sc[i], &res[i])
	}
}

// probe runs h's tier rungs — probe, count, serve — and reports whether
// a tier served it, into *res; otherwise m holds what the walk's fills
// need. A hit counts its flow on the entry that served it
// (cacheSlot.count), so only walks and the rare fallback reach the rules'
// counter cells; the price is that one elephant flow hammered from many
// cores, through either entry point, contends on its entry's line.
//
// Both tiers key on the header as it arrived: the key is packed before
// the walk, and mid-walk mutations apply to the forwarded copy. A
// masked-tier hit does not back-fill the exact tier: all-new-flow
// traffic, the regime the masked tier exists for, would churn the
// exact-match slots without ever re-hitting them.
func (l *ladder) probe(h *openflow.Header, ctx *execCtx, m *pending, res *Result) bool {
	if h == nil {
		// Nothing to classify: the miss path, as on an empty pipeline.
		*res = Result{SentToController: true}
		return true
	}
	m.use = [numTiers]bool{}
	m.shard = 0
	if ctx != nil {
		m.shard = ctx.shard
	}
	if l.tiers[tierExact] == nil && l.tiers[tierMasked] == nil {
		return false
	}
	packFlowKey(&m.k, h)
	m.fp = m.k.fingerprint()
	if ctx == nil {
		m.shard = uint32(m.fp) & (ctrShards - 1)
	}
	var hit slotHit
	for i, c := range l.tiers {
		if c == nil {
			continue
		}
		var local *tierDelta
		if ctx != nil {
			local = &ctx.tiers[i]
		}
		cell := c.cell(m.fp)
		if m.use[i] = c.adm.use(cell); m.use[i] {
			if rp := c.lookup(&m.k, m.fp, l.s, i, &hit); rp != nil {
				c.adm.hit(cell, local)
				if l.d != nil && hit.nrefs > 0 {
					l.d.charge(&hit, m.shard, h.PktLen)
				}
				*res = *rp
				return true
			}
		}
		c.adm.miss(cell, local, m.use[i])
	}
	return false
}

// finish is the ladder's last rung for a walked packet: the flow counters
// of the rules its walk matched, then the fills into whichever tiers it
// used — the exact tier under the full mask, the masked tier under the
// walk's consulted bits — and the result into *res. A walk that matched
// more rules than a cached attribution can carry fills nowhere: serving
// it from a cache would silently stop counting the overflow.
func (l *ladder) finish(m *pending, h *openflow.Header, sc *execScratch, res *Result) {
	if l.d != nil && sc.nrefs > 0 {
		l.d.touch(m.shard, &sc.refs, sc.nrefs, 1, frameBytes(h.PktLen))
	}
	if !sc.refOverflow && m.use != [numTiers]bool{} {
		masks := [numTiers]*flowMask{tierExact: &fullMask, tierMasked: &sc.tr}
		for i, c := range l.tiers {
			if m.use[i] {
				c.install(l.d, &m.k, m.fp, masks[i], &sc.rw, l.s.window(), sc.rp, &sc.refs, sc.nrefs)
			}
		}
	}
	*res = *sc.rp
}
