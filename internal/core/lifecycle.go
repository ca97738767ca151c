package core

import (
	"sync"
	"sync/atomic"
	"time"

	"ofmtl/internal/openflow"
)

// This file implements the pipeline's flow lifecycle directory: the
// per-flow counter arenas behind flow-stats, and the idle/hard timeout
// machinery that expires flows without perturbing the lookup hot path.
//
// Every installed flow is assigned a lifecycle ref (slot+1) at insert
// time, stamped into the stored entry so every lookup layer — backend
// walk, microflow cache, megaflow tier — can attribute a packet back to
// the rules that matched it. A packet counts in one of two places. A
// cache hit counts on the entry that served it: one packed word on the
// line the probe has just loaded (cacheSlot.count). A walk counts on the
// matched rules' cells (touch): each of ctrShards shards owns a
// lazily-chunked arena of 24-byte atomic cells, unpadded, so two or
// three flows share a 64-byte line; a batch worker touches only its own
// shard. Neither path allocates in steady state. An entry's pending hits
// fold into its rules' cells (credit) when the entry is rewritten, when
// its tier is replaced, and before every read of the counters — a scrape
// from cursor 0, an expiry sweep, a clock step — and reads merge the
// shards, so what they report is exact.
//
// Timeouts ride a coarse one-second timer wheel owned by the sweeper.
// The data plane never arms or checks timers; it only stamps a coarse
// last-seen second into the matched flows' counter cells. The sweeper
// (Pipeline.SweepExpired, driven by StartExpiry) drains newly armed
// flows into the wheel, re-verifies due entries against the merged
// counters — an idle deadline moves forward whenever traffic arrived —
// and batches everything genuinely expired into ONE transaction commit,
// so a sweep publishes exactly one snapshot and invalidates the cache
// tiers once, like any other commit.

const (
	// dirChunkShift sizes the directory's chunks: 4096 slots per chunk,
	// so a million-flow directory is ~256 chunk pointers per spine.
	dirChunkShift = 12
	dirChunkSlots = 1 << dirChunkShift

	// ctrShards is the counter shard fan-out. Batch workers index it by
	// worker slot, the single-packet path by key fingerprint, folds use
	// shard 0. Shards keep concurrent walks off each other's cells; within
	// a shard, neighbouring flows' cells share lines.
	ctrShards = 8

	// ctrRefMax bounds the matched rules attributed per packet: one per
	// table, for a walk up to eight tables deep. The rare longer walk
	// touches the first ctrRefMax rules and skips the cache installs so
	// cached entries never carry a truncated attribution.
	ctrRefMax = 8

	// dirWheelSlots is the timer wheel's bucket count (one-second
	// granularity). Deadlines further out than the horizon simply get
	// re-examined early and re-armed; correctness never depends on the
	// horizon.
	dirWheelSlots = 256

	// dirFoldBacklog is how many freed slots may wait for a fold before
	// an allocation that finds none reusable runs one (see alloc).
	dirFoldBacklog = 1024
)

// Flow-removed reasons, mirroring OFPRR_*.
const (
	FlowRemovedIdleTimeout uint8 = 1
	FlowRemovedHardTimeout uint8 = 2
)

// flowMeta is one live flow's immutable lifecycle record. A new record
// is published (atomically, per slot) at insert and retracted at
// removal; scrapes iterate the published records lock-free.
type flowMeta struct {
	entry *openflow.FlowEntry // the stored canonical entry (carries Ref)
	table openflow.TableID
	slot  uint32
	seq   uint64 // allocation sequence; guards wheel entries across slot reuse
	born  int64  // coarse install second
	idle  uint16
	hard  uint16
}

type metaChunk [dirChunkSlots]atomic.Pointer[flowMeta]

// ctrCell is one (shard, flow) counter cell: packets, bytes and the
// coarse last-seen second.
type ctrCell struct {
	pkts  atomic.Uint64
	bytes atomic.Uint64
	last  atomic.Int64
}

type ctrChunk [dirChunkSlots]ctrCell

// ctrShard is one worker's counter arena: a lazily-chunked spine grown
// copy-on-write with CAS, so the touch fast path is two pointer loads
// and the slow path (first flow in a new chunk) races benignly.
type ctrShard struct {
	chunks atomic.Pointer[[]*ctrChunk]
	_      [56]byte // keep neighbouring shards' spines off one line
}

// cell returns the counter cell for slot, allocating its chunk on first
// use. The fast path performs no allocation and no stores.
func (s *ctrShard) cell(slot uint32) *ctrCell {
	ci := slot >> dirChunkShift
	for {
		spine := s.chunks.Load()
		if spine != nil && int(ci) < len(*spine) {
			if c := (*spine)[ci]; c != nil {
				return &c[slot&(dirChunkSlots-1)]
			}
		}
		ns := make([]*ctrChunk, 0, int(ci)+1)
		if spine != nil {
			ns = append(ns, *spine...)
		}
		for int(ci) >= len(ns) {
			ns = append(ns, nil)
		}
		ns[ci] = new(ctrChunk)
		if s.chunks.CompareAndSwap(spine, &ns) {
			return &ns[ci][slot&(dirChunkSlots-1)]
		}
	}
}

// peek returns the cell if its chunk exists, without allocating.
func (s *ctrShard) peek(slot uint32) *ctrCell {
	spine := s.chunks.Load()
	if spine == nil {
		return nil
	}
	ci := slot >> dirChunkShift
	if int(ci) >= len(*spine) || (*spine)[ci] == nil {
		return nil
	}
	return &(*spine)[ci][slot&(dirChunkSlots-1)]
}

// expiryRef is one armed timeout awaiting its deadline: the flow's ref
// and the allocation sequence that validates it (slot reuse bumps the
// sequence, so a stale wheel entry self-identifies and is dropped).
type expiryRef struct {
	ref uint32
	seq uint64
}

// flowDir is the pipeline's lifecycle directory.
type flowDir struct {
	// clock is the coarse lifecycle second, advanced by the sweeper (or
	// SetLifecycleClock in tests) and read once per counted packet.
	clock atomic.Int64

	// metas is the chunked spine of published flow records; grown under
	// mu, read lock-free by scrapes and the hot path's touch.
	metas atomic.Pointer[[]*metaChunk]

	shards [ctrShards]ctrShard

	// tiers are the pipeline's cache tiers, whose entries hold hits not
	// yet folded into the cells; foldMu serialises folds.
	tiers  *[numTiers]atomic.Pointer[flowCache]
	foldMu sync.Mutex

	// mu guards slot allocation state. All allocating callers already
	// hold the pipeline write lock; the directory keeps its own lock so
	// it stays self-contained, and folds take it without that lock.
	// freed slots are reusable; limbo ones were freed since the last fold
	// began.
	mu       sync.Mutex
	freed    []uint32
	limbo    []uint32
	next     uint32
	allocSeq uint64

	live atomic.Int64

	// pending collects freshly armed flows between sweeps; the sweeper
	// drains it into the wheel.
	pmu     sync.Mutex
	pending []expiryRef

	// wheel is sweeper-owned: one-second buckets indexed by deadline
	// modulo the horizon. wtick is the last swept second.
	wmu   sync.Mutex
	wheel [dirWheelSlots][]expiryRef
	wtick int64
}

// newFlowDir builds a directory over the given cache tiers, with the
// clock seeded to the wall second, so flows installed before the first
// sweep age from now rather than from the epoch.
func newFlowDir(tiers *[numTiers]atomic.Pointer[flowCache]) *flowDir {
	d := &flowDir{tiers: tiers}
	now := time.Now().Unix()
	d.clock.Store(now)
	d.wtick = now
	return d
}

// metaOf returns the published record for ref (nil when the slot is
// empty or out of range). Lock-free.
func (d *flowDir) metaOf(ref uint32) *flowMeta {
	if ref == 0 {
		return nil
	}
	spine := d.metas.Load()
	if spine == nil {
		return nil
	}
	slot := ref - 1
	ci := slot >> dirChunkShift
	if int(ci) >= len(*spine) {
		return nil
	}
	return (*spine)[ci][slot&(dirChunkSlots-1)].Load()
}

// alloc claims a slot for a freshly stored entry, zeroes its counters,
// publishes its record and returns the ref (slot+1). A freed slot is
// reused only once a fold has run since it was freed: that fold drops
// whatever hits cache entries still held for the old flow, where after
// reuse it would credit them to the new one. With no slot reusable and
// dirFoldBacklog waiting, alloc runs the fold itself. Timed flows are
// queued for the sweeper. Called under the pipeline write lock.
func (d *flowDir) alloc(entry *openflow.FlowEntry, table openflow.TableID, idle, hard uint16) uint32 {
	d.mu.Lock()
	if len(d.freed) == 0 && len(d.limbo) >= dirFoldBacklog {
		d.mu.Unlock()
		d.fold()
		d.mu.Lock()
	}
	var slot uint32
	if n := len(d.freed); n > 0 {
		slot = d.freed[n-1]
		d.freed = d.freed[:n-1]
	} else {
		slot = d.next
		d.next++
	}
	d.allocSeq++
	seq := d.allocSeq
	ci := slot >> dirChunkShift
	spine := d.metas.Load()
	if spine == nil || int(ci) >= len(*spine) {
		ns := make([]*metaChunk, 0, int(ci)+1)
		if spine != nil {
			ns = append(ns, *spine...)
		}
		for int(ci) >= len(ns) {
			ns = append(ns, new(metaChunk))
		}
		d.metas.Store(&ns)
		spine = &ns
	}
	d.mu.Unlock()

	// Zero the reused slot's counters before publishing the record. A
	// straggler — a reader still on a snapshot from before the free,
	// counting after the fold — can still land on the fresh cell: a
	// bounded monitoring skew, accepted for a lock-free count path.
	for i := range d.shards {
		if c := d.shards[i].peek(slot); c != nil {
			c.pkts.Store(0)
			c.bytes.Store(0)
			c.last.Store(0)
		}
	}
	m := &flowMeta{
		entry: entry,
		table: table,
		slot:  slot,
		seq:   seq,
		born:  d.clock.Load(),
		idle:  idle,
		hard:  hard,
	}
	(*spine)[ci][slot&(dirChunkSlots-1)].Store(m)
	d.live.Add(1)
	if idle > 0 || hard > 0 {
		d.pmu.Lock()
		d.pending = append(d.pending, expiryRef{ref: slot + 1, seq: seq})
		d.pmu.Unlock()
	}
	return slot + 1
}

// free retracts ref's record and queues its slot for reuse after the
// next fold. Called under the pipeline write lock; wheel entries
// referencing the old sequence are dropped when the sweeper meets them.
func (d *flowDir) free(ref uint32) {
	if ref == 0 {
		return
	}
	spine := d.metas.Load()
	if spine == nil {
		return
	}
	slot := ref - 1
	ci := slot >> dirChunkShift
	if int(ci) >= len(*spine) {
		return
	}
	(*spine)[ci][slot&(dirChunkSlots-1)].Store(nil)
	d.live.Add(-1)
	d.mu.Lock()
	d.limbo = append(d.limbo, slot)
	d.mu.Unlock()
}

// fold moves every cache entry's pending hits into its rules' cells,
// then releases for reuse the slots freed before it began. Scrapes and
// the expiry sweep run it first, so the counters they read are exact.
func (d *flowDir) fold() {
	d.foldMu.Lock()
	defer d.foldMu.Unlock()
	d.mu.Lock()
	n := len(d.limbo)
	d.mu.Unlock()
	for i := range d.tiers {
		if c := d.tiers[i].Load(); c != nil {
			c.fold(d)
		}
	}
	d.mu.Lock()
	d.freed = append(d.freed, d.limbo[:n]...)
	d.limbo = append(d.limbo[:0], d.limbo[n:]...)
	d.mu.Unlock()
}

// frameBytes is the byte count a packet is charged: its length, with 0
// read as a minimum-size Ethernet frame.
func frameBytes(pktLen uint32) uint64 {
	if pktLen == 0 {
		return 64
	}
	return uint64(pktLen)
}

// touch counts pkts packets of bytes in total against every attributed
// flow: one clock load, then per ref an increment pair and a coarse
// last-seen store on the caller's shard. The last-seen second is stored
// only when it differs — an atomic store is a locked instruction, and
// within one clock second it would rewrite the same value. Zero refs (no
// attribution) are skipped. The fast path allocates nothing.
func (d *flowDir) touch(shard uint32, refs *[ctrRefMax]uint32, n int, pkts, bytes uint64) {
	now := d.clock.Load()
	s := &d.shards[shard&(ctrShards-1)]
	for i := 0; i < n; i++ {
		ref := refs[i]
		if ref == 0 {
			continue
		}
		c := s.cell(ref - 1)
		c.pkts.Add(pkts)
		c.bytes.Add(bytes)
		if c.last.Load() != now {
			c.last.Store(now)
		}
	}
}

// warm loads the cells a touch of refs on shard writes. A touch's atomic
// adds each wait for their cell's line; plain loads of a group's cells,
// issued together before its touches, overlap (ladder.execGroup).
func (d *flowDir) warm(shard uint32, refs *[ctrRefMax]uint32, n int) {
	s := &d.shards[shard&(ctrShards-1)]
	for i := 0; i < n; i++ {
		if ref := refs[i]; ref != 0 {
			s.cell(ref - 1).last.Load()
		}
	}
}

// charge counts one packet a cache entry served: on the entry itself
// while it still holds the walk the reader validated, else on the rules'
// cells through the refs the reader copied — as is a field's total the
// packet would overflow.
func (d *flowDir) charge(hit *slotHit, shard uint32, pktLen uint32) {
	n := frameBytes(pktLen)
	ok, pkts, bytes := hit.e.count(hit.h, n, d.clock.Load())
	if !ok {
		pkts, bytes = 1, n
	}
	if pkts > 0 {
		d.touch(shard, &hit.refs, hit.nrefs, pkts, bytes)
	}
}

// credit folds a cache entry's pending count into its rules' cells on
// shard 0, with the entry's last-seen second: a touch of pkts packets at
// that second. A ref with no live record — its rule is gone — drops its
// share, as a deleted rule's counts are lost.
func (d *flowDir) credit(refs *[ctrRefMax]uint32, n int, pkts, bytes uint64, last int64) {
	s := &d.shards[0]
	for i := 0; i < n; i++ {
		ref := refs[i]
		if d.metaOf(ref) == nil {
			continue
		}
		c := s.cell(ref - 1)
		c.pkts.Add(pkts)
		c.bytes.Add(bytes)
		if c.last.Load() != last {
			c.last.Store(last)
		}
	}
}

// merged sums a slot's counters across the shards and returns the
// newest last-seen second. Lock-free.
func (d *flowDir) merged(slot uint32) (pkts, bytes uint64, last int64) {
	for i := range d.shards {
		if c := d.shards[i].peek(slot); c != nil {
			pkts += c.pkts.Load()
			bytes += c.bytes.Load()
			if l := c.last.Load(); l > last {
				last = l
			}
		}
	}
	return pkts, bytes, last
}

// deadlineOf computes a flow's effective expiry second: the earlier of
// its idle deadline (last traffic + idle, floored at install) and its
// hard deadline (install + hard). ok is false when neither is armed.
func (d *flowDir) deadlineOf(m *flowMeta) (deadline int64, ok bool) {
	if m.idle > 0 {
		_, _, last := d.merged(m.slot)
		if last < m.born {
			last = m.born
		}
		deadline, ok = last+int64(m.idle), true
	}
	if m.hard > 0 {
		if hd := m.born + int64(m.hard); !ok || hd < deadline {
			deadline = hd
		}
		ok = true
	}
	return deadline, ok
}

// armLocked inserts one timeout into the wheel (wmu held). Deadlines
// beyond the horizon land in a nearer bucket and are re-armed when the
// sweeper meets them early.
func (d *flowDir) armLocked(er expiryRef, deadline int64) {
	d.wheel[deadline&(dirWheelSlots-1)] = append(d.wheel[deadline&(dirWheelSlots-1)], er)
}

// expiredFlow is one sweep candidate: the flow to expire and the
// counter/duration snapshot taken at selection (the record may be gone
// by the time the flow-removed notification is emitted).
type expiredFlow struct {
	table    openflow.TableID
	entry    *openflow.FlowEntry
	ref      uint32
	seq      uint64
	reason   uint8
	pkts     uint64
	bytes    uint64
	duration uint32
}

// collectExpired advances the wheel to now and returns the flows whose
// deadlines have genuinely passed. Entries whose flow vanished (or
// whose slot was reused) are dropped; entries whose idle deadline moved
// forward — traffic arrived — are re-armed at the new deadline.
func (d *flowDir) collectExpired(now int64) []expiredFlow {
	d.wmu.Lock()
	defer d.wmu.Unlock()

	// Fold freshly armed flows in.
	d.pmu.Lock()
	fresh := d.pending
	d.pending = nil
	d.pmu.Unlock()
	var due []expiryRef
	for _, er := range fresh {
		m := d.metaOf(er.ref)
		if m == nil || m.seq != er.seq {
			continue
		}
		if deadline, ok := d.deadlineOf(m); ok {
			if deadline <= now {
				due = append(due, er)
			} else {
				d.armLocked(er, deadline)
			}
		}
	}

	// Advance the wheel. A jump past the horizon visits every bucket
	// exactly once instead of re-walking them per elapsed second.
	if now > d.wtick {
		from, to := d.wtick+1, now
		if to-from >= dirWheelSlots {
			from, to = 0, dirWheelSlots-1
		}
		for t := from; t <= to; t++ {
			b := t & (dirWheelSlots - 1)
			if len(d.wheel[b]) == 0 {
				continue
			}
			keep := d.wheel[b][:0]
			for _, er := range d.wheel[b] {
				m := d.metaOf(er.ref)
				if m == nil || m.seq != er.seq {
					continue // flow removed (or slot reused); drop
				}
				deadline, ok := d.deadlineOf(m)
				if !ok {
					continue
				}
				switch {
				case deadline <= now:
					due = append(due, er)
				case deadline&(dirWheelSlots-1) == b && deadline-now < dirWheelSlots:
					keep = append(keep, er) // same bucket, next lap
				default:
					d.armLocked(er, deadline)
				}
			}
			d.wheel[b] = keep
		}
		d.wtick = now
	}

	out := make([]expiredFlow, 0, len(due))
	for _, er := range due {
		m := d.metaOf(er.ref)
		if m == nil || m.seq != er.seq {
			continue
		}
		pkts, bytes, _ := d.merged(m.slot)
		reason := FlowRemovedIdleTimeout
		if m.hard > 0 && now >= m.born+int64(m.hard) {
			reason = FlowRemovedHardTimeout
		}
		dur := now - m.born
		if dur < 0 {
			dur = 0
		}
		out = append(out, expiredFlow{
			table:    m.table,
			entry:    m.entry,
			ref:      er.ref,
			seq:      er.seq,
			reason:   reason,
			pkts:     pkts,
			bytes:    bytes,
			duration: uint32(dur),
		})
	}
	return out
}

// rearm pushes failed-commit candidates back into the wheel one second
// out, so a rejected sweep (budget pressure, injected fault) retries
// rather than leaking armed timeouts.
func (d *flowDir) rearm(cands []expiredFlow, now int64) {
	d.wmu.Lock()
	for _, c := range cands {
		d.armLocked(expiryRef{ref: c.ref, seq: c.seq}, now+1)
	}
	d.wmu.Unlock()
}

// FlowStats is one flow's lifecycle view, as served by VisitFlows.
type FlowStats struct {
	Table       openflow.TableID
	Ref         uint32
	Priority    int
	Cookie      uint64
	IdleTimeout uint16
	HardTimeout uint16
	// Age is seconds since install; IdleAge seconds since the last
	// counted packet (or install, for an untouched flow).
	Age     uint32
	IdleAge uint32
	Packets uint64
	Bytes   uint64
	// Entry is the installed canonical entry. It is immutable; callers
	// must not modify it.
	Entry *openflow.FlowEntry
}

// FlowRemoved is one expiry notification, queued when a sweep removes a
// flow and drained by FlowRemovedSince (and the wire's async
// flow-removed messages).
type FlowRemoved struct {
	Table       openflow.TableID
	Reason      uint8 // FlowRemovedIdleTimeout / FlowRemovedHardTimeout
	DurationSec uint32
	Packets     uint64
	Bytes       uint64
	Entry       *openflow.FlowEntry
}

// LifecycleStats is the pipeline's lifecycle telemetry.
type LifecycleStats struct {
	// Flows is the number of live tracked flows.
	Flows int64
	// ExpiredIdle / ExpiredHard count flows removed by timeout.
	ExpiredIdle uint64
	ExpiredHard uint64
	// Sweeps counts expiry sweeps that committed at least one removal.
	Sweeps uint64
	// Removed counts flow-removed notifications emitted; RemovedDropped
	// those a consumer lost to ring overflow, each counted once however
	// many consumers lost it.
	Removed        uint64
	RemovedDropped uint64
	// Groups is the number of installed group-table entries.
	Groups int
}

// VisitFlows iterates the live flows lock-free, in slot order, calling
// fn for each flow passing the filters: table (-1 selects every table)
// and the cookie/mask pair (mask 0 selects everything). Iteration
// starts at slot cursor `start` and stops after max flows (max <= 0
// means unbounded) or when fn returns false; the returned cursor
// resumes the scan and more reports whether matching flows remain. The
// *FlowStats passed to fn is reused between calls — copy it to retain.
//
// A scan from cursor 0 first folds the cache entries' pending hits into
// the counters (O(cache slots), once per scan, not per page). The scan
// never takes the pipeline write lock, so scraping a million-flow
// directory does not pause commits; a flow mutated mid-scan is simply
// observed in whichever state the slot held when its chunk was read.
func (p *Pipeline) VisitFlows(table int, cookie, cookieMask uint64, start uint32, max int, fn func(*FlowStats) bool) (next uint32, more bool) {
	d := p.dir
	if start == 0 {
		d.fold()
	}
	spine := d.metas.Load()
	if spine == nil {
		return 0, false
	}
	total := uint32(len(*spine)) << dirChunkShift
	count := 0
	var fs FlowStats
	now := d.clock.Load()
	for slot := start; slot < total; slot++ {
		m := (*spine)[slot>>dirChunkShift][slot&(dirChunkSlots-1)].Load()
		if m == nil {
			continue
		}
		if table >= 0 && int(m.table) != table {
			continue
		}
		if cookieMask != 0 && m.entry.Cookie&cookieMask != cookie&cookieMask {
			continue
		}
		if max > 0 && count == max {
			return slot, true
		}
		pkts, bytes, last := d.merged(m.slot)
		if last < m.born {
			last = m.born
		}
		age, idleAge := now-m.born, now-last
		if age < 0 {
			age = 0
		}
		if idleAge < 0 {
			idleAge = 0
		}
		fs = FlowStats{
			Table:       m.table,
			Ref:         m.slot + 1,
			Priority:    m.entry.Priority,
			Cookie:      m.entry.Cookie,
			IdleTimeout: m.idle,
			HardTimeout: m.hard,
			Age:         uint32(age),
			IdleAge:     uint32(idleAge),
			Packets:     pkts,
			Bytes:       bytes,
			Entry:       m.entry,
		}
		count++
		if !fn(&fs) {
			return slot + 1, slot+1 < total
		}
	}
	return total, false
}

// AggregateStats is the pipeline-wide roll-up of per-flow counters.
type AggregateStats struct {
	Packets uint64
	Bytes   uint64
	Flows   uint32
}

// AggregateFlowStats sums packets, bytes and flow count over the flows
// passing the table/cookie filters (table -1 selects every table).
// Lock-free, like VisitFlows.
func (p *Pipeline) AggregateFlowStats(table int, cookie, cookieMask uint64) AggregateStats {
	var agg AggregateStats
	p.VisitFlows(table, cookie, cookieMask, 0, 0, func(fs *FlowStats) bool {
		agg.Packets += fs.Packets
		agg.Bytes += fs.Bytes
		agg.Flows++
		return true
	})
	return agg
}

// LifecycleStats returns the lifecycle telemetry. Lock-free.
func (p *Pipeline) LifecycleStats() LifecycleStats {
	st := LifecycleStats{
		Flows:          p.dir.live.Load(),
		ExpiredIdle:    p.expiredIdle.Load(),
		ExpiredHard:    p.expiredHard.Load(),
		Sweeps:         p.sweeps.Load(),
		Removed:        p.removedTotal.Load(),
		RemovedDropped: p.removedDropped.Load(),
	}
	p.groupTab.mu.Lock()
	st.Groups = len(p.groupTab.entries)
	p.groupTab.mu.Unlock()
	return st
}

// SetLifecycleClock pins the lifecycle clock to the given coarse
// second. Tests drive expiry deterministically with it; production
// pipelines let StartExpiry advance the clock from the wall. Pending
// cache hits fold first, so they keep the second they arrived in.
func (p *Pipeline) SetLifecycleClock(now int64) {
	p.dir.fold()
	p.dir.clock.Store(now)
}

// LifecycleClock returns the current coarse lifecycle second.
func (p *Pipeline) LifecycleClock() int64 { return p.dir.clock.Load() }

// SweepExpired advances the lifecycle clock to now and expires every
// flow whose idle or hard deadline has passed, batching all removals
// into one transaction — one commit, one snapshot publish, one precise
// cache invalidation, regardless of how many flows expired. Flow-
// removed notifications (with counters snapshotted at selection) are
// queued for FlowRemovedSince. It returns the number of flows removed.
//
// A sweep whose commit fails (memory-budget rejection, injected fault)
// removes nothing — the transaction rolls back — and re-arms the
// candidates one second out, so expiry degrades to retry rather than
// half-applying.
func (p *Pipeline) SweepExpired(now int64) (int, error) {
	d := p.dir
	d.fold()
	d.clock.Store(now)
	cands := d.collectExpired(now)
	if len(cands) == 0 {
		return 0, nil
	}
	tx := p.Begin()
	for i := range cands {
		tx.FlowMod(FlowCmd{
			Op:        cmdExpire,
			Table:     cands[i].table,
			Entry:     *cands[i].entry,
			expireSeq: cands[i].seq,
		})
	}
	res, err := tx.Commit()
	if err != nil {
		d.rearm(cands, now)
		return 0, err
	}
	byRef := make(map[uint32]*expiredFlow, len(cands))
	for i := range cands {
		byRef[cands[i].ref] = &cands[i]
	}
	for _, rec := range res.expired {
		c := byRef[rec.entry.Ref]
		if c == nil {
			continue
		}
		if c.reason == FlowRemovedHardTimeout {
			p.expiredHard.Add(1)
		} else {
			p.expiredIdle.Add(1)
		}
		p.pushRemoved(FlowRemoved{
			Table:       c.table,
			Reason:      c.reason,
			DurationSec: c.duration,
			Packets:     c.pkts,
			Bytes:       c.bytes,
			Entry:       rec.entry,
		})
	}
	if len(res.expired) > 0 {
		p.sweeps.Add(1)
	}
	return len(res.expired), nil
}

// removedRingSize bounds the flow-removed queue; a consumer further
// behind than this loses the oldest notifications (counted, never
// silently).
const removedRingSize = 256

// pushRemoved appends one notification to the ring.
func (p *Pipeline) pushRemoved(fr FlowRemoved) {
	p.removedMu.Lock()
	p.removedRing[p.removedHead&(removedRingSize-1)] = fr
	p.removedHead++
	p.removedMu.Unlock()
	p.removedTotal.Add(1)
}

// FlowRemovedSince drains flow-removed notifications from the given
// cursor (0 starts at the oldest retained). It returns the drained
// records, the cursor to pass next time, and how many notifications
// between the cursor and the returned records were lost to ring
// overflow.
func (p *Pipeline) FlowRemovedSince(cursor uint64) (recs []FlowRemoved, next uint64, dropped uint64) {
	p.removedMu.Lock()
	defer p.removedMu.Unlock()
	head := p.removedHead
	lo := cursor
	if head > removedRingSize && lo < head-removedRingSize {
		lo = head - removedRingSize
		dropped = lo - cursor
		// A record several lagging consumers lost is one record lost:
		// count only the part of [cursor, lo) no earlier call counted.
		if lo > p.removedLost {
			p.removedDropped.Add(lo - max(cursor, p.removedLost))
			p.removedLost = lo
		}
	}
	for i := lo; i < head; i++ {
		recs = append(recs, p.removedRing[i&(removedRingSize-1)])
	}
	return recs, head, dropped
}

// StartExpiry launches the background expiry sweeper: every interval it
// advances the lifecycle clock to the wall second and sweeps expired
// flows (each sweep one transaction). A second Start replaces the
// previous interval. Intervals <= 0 stop the sweeper, like StopExpiry.
func (p *Pipeline) StartExpiry(interval time.Duration) {
	p.expiryMu.Lock()
	defer p.expiryMu.Unlock()
	if p.expiryStop != nil {
		close(p.expiryStop)
		p.expiryWG.Wait()
		p.expiryStop = nil
	}
	if interval <= 0 {
		return
	}
	stop := make(chan struct{})
	p.expiryStop = stop
	p.expiryWG.Add(1)
	go func() {
		defer p.expiryWG.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				_, _ = p.SweepExpired(time.Now().Unix())
			}
		}
	}()
}

// StopExpiry stops the background sweeper, waiting for an in-flight
// sweep to finish. Idempotent.
func (p *Pipeline) StopExpiry() {
	p.expiryMu.Lock()
	defer p.expiryMu.Unlock()
	if p.expiryStop != nil {
		close(p.expiryStop)
		p.expiryWG.Wait()
		p.expiryStop = nil
	}
}
