package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"ofmtl/internal/openflow"
)

// This file implements the pipeline's RCU-style concurrency engine.
//
// The lookup state is published as an immutable snapshot: one view per
// table behind an atomic pointer. Readers (Execute, ExecuteBatch) load the
// pointer and classify lock-free against whatever snapshot they loaded —
// a reader that raced a concurrent update simply observes the state from
// just before or just after it, never a half-applied one. Writers mutate
// the live tables under the pipeline write lock, which readers never
// take while a snapshot is published. A writer's last step publishes a
// snapshot of what it wrote (a commit with the megaflow tier on, a
// backend migration), unpublishes it keeping the cache window (a commit
// whose only serving tier is the exact one: it logged its record, and
// the next snapshot carries the window on), or retracts it, window and
// all (every other writer); so a published snapshot is always current,
// and a reader that finds none publishes one under the write lock. A burst of commits with no
// lookup in between costs one publish, not one per commit.
//
// A view is not a copy. The mbt and dir24 backends keep their lookup
// state in pages (internal/cow) that the live table and its views share:
// publishing copies page directories, and the live side copies a page the
// first time it writes it after a publish. The invariant readers rely on
// — a published view's pages are never written again — is checked by the
// page seals in the model driver's legs (in process, over the wire and
// under faults) and by TestSnapshotLinearizability.
//
// Every snapshot additionally carries a version from a monotonic
// counter, and the window of fill versions it accepts from the cache
// tiers (flowcache.go): [base, version]. A walk stamps its fills with its
// snapshot's version. The pipeline keeps the window the next snapshot
// built opens with (Pipeline.win). Every writer but a pure rule commit
// resets it, and the next snapshot opens a fresh window (base = its own
// version: every older entry is dead). A pure rule commit keeps it and
// logs a record of its rules (megaflow.go), up to commitHorizon records,
// so the snapshots built after it carry the window forward: an entry
// stamped below a snapshot's version is live only if the commits logged
// since its stamp spare it. A straggler's fill — a walk against an older
// snapshot that fills after a commit — is judged by the commits it did
// not see. A reader of an older snapshot never meets an entry a walk
// against a newer one filled, or a reader revalidated for one: that stamp
// lies above its window.
//
// Memory figures are not part of a snapshot. MemoryStats reads each live
// table's published accounting, which every writer publishes before the
// snapshot that serves its rules, so a reader never classifies against
// rules whose accounting it cannot see yet; and a budget change, which
// alters no rule, leaves the snapshot and both cache tiers as they are.

// snapshot is one published immutable view of the pipeline.
type snapshot struct {
	// version identifies this snapshot; it increases with every rebuild
	// and scopes the validity of cache entries.
	version uint64
	cacheWindow
	order []openflow.TableID
	// byID indexes the views densely by table identifier, so the walk's
	// goto-table hops cost an array load instead of a map probe.
	byID [256]*LookupTable
	// outcomes is the owning pipeline's outcome table, which walks
	// intern their results in (see intern.go).
	outcomes *outcomeTable
	// groups is the immutable group-table view this snapshot executes
	// against. A group mutation retracts the snapshot, which is what
	// invalidates every cached result that baked in the old buckets.
	groups *groupView
	// dir is the owning pipeline's lifecycle directory (counter
	// attribution for walks executed against this snapshot).
	dir *flowDir
}

// loadSnapshot returns the published snapshot: one atomic load, since a
// published snapshot is current. Only a reader that finds none — the
// first lookup after a writer retracted it — takes the write lock, to
// publish one.
func (p *Pipeline) loadSnapshot() *snapshot {
	if s := p.snap.Load(); s != nil {
		return s
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.snap.Load()
	if s == nil { // no other reader published while we waited for the lock
		s = p.buildSnapshotLocked()
		p.snap.Store(s)
	}
	return s
}

// cacheWindow is what a snapshot accepts from the cache tiers: fill
// versions from base to its own, those below its own only if the nlog
// pure rule commits logged since base, newest first, spare the entry.
// base 0 marks a window the next snapshot opens afresh.
type cacheWindow struct {
	base uint64
	log  [commitHorizon]*commitRecord
	nlog int
}

// add logs a commit; past commitHorizon records the oldest leaves the
// log, taking the base up to its version.
func (w *cacheWindow) add(r *commitRecord) {
	if w.nlog == commitHorizon {
		w.base = w.log[commitHorizon-1].version
		w.nlog--
	}
	copy(w.log[1:], w.log[:w.nlog])
	w.log[0] = r
	w.nlog++
}

// window returns the fill versions the snapshot accepts from the tiers.
func (s *snapshot) window() window { return window{s.base, s.version} }

// retract withdraws the published snapshot, and the TableInfos cache
// with it, and resets the cache window: the last step of a writer that
// does not publish a snapshot of what it wrote. Callers hold the write
// lock, or are a table's direct Insert or Remove in the single-threaded
// build phase.
func (p *Pipeline) retract() {
	p.win = cacheWindow{}
	p.unpublish()
}

// unpublish withdraws the published snapshot and the TableInfos cache,
// keeping the cache window: the last step of a pure rule commit that
// logged itself but leaves the publish to the next lookup.
func (p *Pipeline) unpublish() {
	p.snap.Store(nil)
	p.infoCache = nil
}

// buildSnapshotLocked builds a snapshot of the live state, with the
// pipeline's cache window, without publishing it; it bumps the version
// counter exactly once. Tables unchanged since their last view reuse it.
func (p *Pipeline) buildSnapshotLocked() *snapshot {
	ver := p.snapVersion.Add(1)
	if p.win.base == 0 {
		p.win.base = ver
	}
	ns := &snapshot{
		version:     ver,
		cacheWindow: p.win,
		order:       append([]openflow.TableID(nil), p.order...),
		outcomes:    &p.outcomes,
		groups:      p.groupsView.Load(),
		dir:         p.dir,
	}
	for _, id := range ns.order {
		ns.byID[id] = p.tables[id].viewLocked()
	}
	return ns
}

// SetWorkers bounds the goroutines one ExecuteBatch call fans out to.
// Zero (the default) selects GOMAXPROCS; one forces the sequential path.
func (p *Pipeline) SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	p.workers.Store(int64(n))
}

// Workers returns the configured ExecuteBatch fan-out bound (0 means
// GOMAXPROCS).
func (p *Pipeline) Workers() int { return int(p.workers.Load()) }

// walkGroup is the number of consecutive headers whose cache misses a
// batch worker walks together (ladder.execGroup): enough independent
// memory loads in each stage of an mbt lookup to keep the core's
// outstanding misses busy. Measured on the 256 k-prefix LPM table
// (BenchmarkPipelineExecuteBatch/lpm256k), where the walk is bound by
// memory latency; tables that fit in cache gain nothing from the overlap.
const walkGroup = 16

// batchChunk is the number of headers a batch worker claims per cursor
// advance: large enough to amortise the atomic increment, small enough
// to balance skewed per-packet costs across workers, and a multiple of
// walkGroup, so a chunk splits into whole groups.
const batchChunk = 32

// execCtx is one batch worker's private execution context: its own
// walker, the tier state of its current group's misses and the slots
// that walk, and its own cache counters, flushed once per batch. Workers
// never share a context, so the batch hot path performs no pool traffic
// and no per-packet atomic writes beyond the claimed-cursor advances.
type execCtx struct {
	w     walker
	miss  [walkGroup]pending
	walks [walkGroup]int32    // the group's misses, in packet order
	tiers [numTiers]tierDelta // per-tier cache counters
	// shard is the lifecycle counter shard this worker charges; workers
	// map to distinct shards, so per-flow counting in a batch is
	// single-writer per (shard, flow) cell.
	shard uint32
	_     [64]byte // keep neighbouring workers' contexts off one line
}

// padCursor is a cache-line-isolated work cursor; one per worker region,
// so claims on one region never bounce another worker's line.
type padCursor struct {
	n atomic.Int64
	_ [56]byte
}

// batchState carries one ExecuteBatch invocation: the inputs, the reply
// slice, the loaded snapshot/cache, and the per-worker cursors and
// contexts. States are pooled; the slices grow to the largest worker
// count seen and are reused, so steady-state batches allocate nothing.
type batchState struct {
	ladder
	hs      []*openflow.Header
	res     []Result
	workers int
	region  int // headers per worker region (multiple of batchChunk)
	cursors []padCursor
	ctxs    []execCtx
	wg      sync.WaitGroup
}

var batchStatePool = sync.Pool{New: func() any { return new(batchState) }}

// size ensures the per-worker slices cover n workers.
func (bs *batchState) size(n int) {
	if cap(bs.cursors) < n {
		bs.cursors = make([]padCursor, n)
		bs.ctxs = make([]execCtx, n)
	}
	bs.cursors = bs.cursors[:n]
	bs.ctxs = bs.ctxs[:n]
}

// batchJob hands one worker slot of one batch to a parked worker.
type batchJob struct {
	bs *batchState
	w  int
}

// batchEngine parks persistent worker goroutines on a job channel. A
// `go f(args)` statement heap-allocates its argument closure, so
// spawning workers per batch costs one allocation each; parked workers
// receive (batchState, slot) pairs by value instead, which is what
// makes the steady-state batch path 0 allocs/op. Workers are started
// lazily up to the largest fan-out seen; a cleanup closes the channel
// when the owning pipeline becomes unreachable, so parked goroutines do
// not outlive it.
type batchEngine struct {
	mu     sync.Mutex
	jobs   chan batchJob
	parked int
}

// dispatch hands out worker slots 1..workers-1 (the caller runs slot 0).
func (p *Pipeline) dispatchBatch(bs *batchState, workers int) {
	e := &p.batch
	e.mu.Lock()
	if e.jobs == nil {
		e.jobs = make(chan batchJob, 64)
		// Tied to the pipeline, not the engine: the workers only
		// reference the channel, so an abandoned pipeline becomes
		// unreachable, the cleanup closes the channel and the parked
		// goroutines exit.
		runtime.AddCleanup(p, func(jobs chan batchJob) { close(jobs) }, e.jobs)
	}
	for e.parked < workers-1 {
		go batchWorker(e.jobs)
		e.parked++
	}
	e.mu.Unlock()
	for w := 1; w < workers; w++ {
		e.jobs <- batchJob{bs: bs, w: w}
	}
}

// batchWorker is one parked worker: it serves batch jobs until the
// owning pipeline's cleanup closes the channel.
func batchWorker(jobs chan batchJob) {
	for j := range jobs {
		j.bs.work(j.w)
		j.bs.wg.Done()
	}
}

// work drains the worker's own contiguous region, then steals from the
// other regions in cyclic order so stragglers (skewed per-packet costs,
// descheduled workers) never leave a core idle.
func (bs *batchState) work(w int) {
	ctx := &bs.ctxs[w]
	ctx.shard = uint32(w)
	for v := 0; v < bs.workers; v++ {
		bs.drain((w+v)%bs.workers, ctx)
	}
	for i, c := range bs.tiers {
		if c != nil {
			c.adm.flush(w, &ctx.tiers[i])
		}
	}
	ctx.w.release(walkGroup)
}

// drain claims chunks from region v until it is exhausted. Both the
// owner and thieves claim through the same cursor, so every header is
// executed exactly once.
func (bs *batchState) drain(v int, ctx *execCtx) {
	lo := v * bs.region
	n := len(bs.hs)
	if lo >= n {
		return
	}
	hi := lo + bs.region
	if hi > n {
		hi = n
	}
	cur := &bs.cursors[v].n
	for {
		start := int(cur.Add(batchChunk)) - batchChunk
		if start >= hi {
			return
		}
		end := start + batchChunk
		if end > hi {
			end = hi
		}
		for i := start; i < end; i += walkGroup {
			j := min(i+walkGroup, end)
			bs.execGroup(bs.hs[i:j], ctx, bs.res[i:j])
		}
	}
}

// ExecuteBatch classifies every header through the pipeline and returns
// one Result per header, in order. It is ExecuteBatchInto with a fresh
// reply slice; callers on the steady-state path should reuse a slice
// through ExecuteBatchInto instead.
func (p *Pipeline) ExecuteBatch(hs []*openflow.Header) []Result {
	return p.ExecuteBatchInto(hs, nil)
}

// ExecuteBatchInto classifies every header through the pipeline, writing
// one Result per header, in order, into res (grown if its capacity is
// short, so passing the previous call's return value makes the batch
// path allocation-free in steady state).
//
// The snapshot is loaded once for the whole batch and the work split
// into per-worker contiguous regions claimed in cache-friendly chunks;
// workers that finish their region steal chunks from the others. Each
// worker owns a private execution context (walk scratch, cache
// counters), so workers share no mutable state besides the region
// cursors and their disjoint slices of res. Headers must be distinct
// (they are mutated during execution, as in Execute); nil headers yield
// a send-to-controller Result. Like Execute it is safe to call
// concurrently with mutations; the whole batch observes one consistent
// snapshot.
func (p *Pipeline) ExecuteBatchInto(hs []*openflow.Header, res []Result) []Result {
	if cap(res) >= len(hs) {
		res = res[:len(hs)]
	} else {
		res = make([]Result, len(hs))
	}
	if len(hs) == 0 {
		return res
	}
	workers := p.Workers()
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if max := (len(hs) + batchChunk - 1) / batchChunk; workers > max {
		workers = max
	}
	if workers < 1 {
		workers = 1
	}

	bs := batchStatePool.Get().(*batchState)
	bs.size(workers)
	bs.ladder = ladder{s: p.loadSnapshot(), tiers: [numTiers]*flowCache{p.tiers[tierExact].Load(), p.tiers[tierMasked].Load()}, d: p.dir}
	bs.hs = hs
	bs.res = res
	bs.workers = workers
	region := (len(hs) + workers - 1) / workers
	bs.region = (region + batchChunk - 1) / batchChunk * batchChunk
	for w := 0; w < workers; w++ {
		bs.cursors[w].n.Store(int64(w * bs.region))
	}

	bs.wg.Add(workers - 1)
	if workers > 1 {
		p.dispatchBatch(bs, workers)
	}
	bs.work(0) // the caller is worker 0
	bs.wg.Wait()

	bs.ladder, bs.hs, bs.res = ladder{}, nil, nil
	batchStatePool.Put(bs)
	return res
}

// Refresh publishes a snapshot of the live state unless one is
// published. It is never required for correctness, but lets callers that
// mutated tables directly move the publish off the lookup path.
func (p *Pipeline) Refresh() {
	p.loadSnapshot()
}
