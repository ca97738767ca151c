package core

import (
	"sync/atomic"
	"testing"

	"ofmtl/internal/bitops"
	"ofmtl/internal/filterset"
	"ofmtl/internal/openflow"
	"ofmtl/internal/xrand"
)

// megaflowTestPipeline builds a two-table routing-style pipeline (ingress
// port → metadata, then LPM on the destination) with every table pinned
// to the given lookup backend and the given cache tier sizes.
func megaflowTestPipeline(t testing.TB, backend string, micro, mega int) *Pipeline {
	t.Helper()
	p := NewPipeline()
	if _, err := p.AddTable(TableConfig{
		ID:      0,
		Fields:  []openflow.FieldID{openflow.FieldInPort},
		Backend: backend,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddTable(TableConfig{
		ID:      1,
		Fields:  []openflow.FieldID{openflow.FieldMetadata, openflow.FieldIPv4Dst},
		Backend: backend,
	}); err != nil {
		t.Fatal(err)
	}
	p.SetCacheSize(micro)
	p.SetMegaflowSize(mega)
	return p
}

// portEntry transfers an ingress port into metadata and continues to the
// LPM table.
func portEntry(port uint32) *openflow.FlowEntry {
	return &openflow.FlowEntry{
		Priority: 1,
		Matches:  []openflow.Match{openflow.Exact(openflow.FieldInPort, uint64(port))},
		Instructions: []openflow.Instruction{
			openflow.WriteMetadata(uint64(port), ^uint64(0)),
			openflow.GotoTable(1),
		},
	}
}

// prefixEntry is one LPM rule: (port, prefix/plen) → out, with the
// prefix length encoded in the priority so longer prefixes win.
func prefixEntry(port uint32, prefix uint64, plen int, out uint32) *openflow.FlowEntry {
	return &openflow.FlowEntry{
		Priority: 1 + plen,
		Matches: []openflow.Match{
			openflow.Exact(openflow.FieldMetadata, uint64(port)),
			openflow.Prefix(openflow.FieldIPv4Dst, prefix, plen),
		},
		Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(out))},
	}
}

// TestMegaflowEvictionOnShadowingInsert pins the precise-invalidation
// edge case: committing a higher-priority, more-specific rule that
// shadows a cached megaflow region must evict the entry — the very next
// packet in the shadowed region takes the new rule, while a sibling
// packet outside it keeps the old outcome.
func TestMegaflowEvictionOnShadowingInsert(t *testing.T) {
	p := megaflowTestPipeline(t, BackendMBT, 0, 1<<10)
	if _, err := p.Begin().
		Add(0, portEntry(2)).
		Add(1, prefixEntry(2, 0x0A000000, 8, 1)).
		Commit(); err != nil {
		t.Fatal(err)
	}

	inside := openflow.Header{InPort: 2, IPv4Dst: 0x0A010203, EthType: 0x0800, IPProto: 6}
	outside := openflow.Header{InPort: 2, IPv4Dst: 0x0AFF0001, EthType: 0x0800, IPProto: 6}
	exec := func(h openflow.Header) Result { return p.Execute(&h) }

	if got := exec(inside); len(got.Outputs) != 1 || got.Outputs[0] != 1 {
		t.Fatalf("pre-shadow outputs = %v, want [1]", got.Outputs)
	}
	exec(inside) // now served by the megaflow tier
	if st := p.MegaflowStats(); st.Hits == 0 {
		t.Fatal("second packet did not hit the megaflow tier")
	}

	// A /16 under the /8, higher priority, covering `inside` but not
	// `outside`.
	if _, err := p.Begin().Add(1, prefixEntry(2, 0x0A010000, 16, 9)).Commit(); err != nil {
		t.Fatal(err)
	}
	if got := exec(inside); len(got.Outputs) != 1 || got.Outputs[0] != 9 {
		t.Fatalf("post-shadow outputs = %v, want [9] (stale megaflow served?)", got.Outputs)
	}
	if got := exec(outside); len(got.Outputs) != 1 || got.Outputs[0] != 1 {
		t.Fatalf("sibling outputs = %v, want [1]", got.Outputs)
	}
}

// TestMegaflowEvictionOnRuleDelete pins the other eviction edge case:
// deleting the rule a megaflow was derived from must evict the cached
// entry — the region's next packet re-walks and misses.
func TestMegaflowEvictionOnRuleDelete(t *testing.T) {
	p := megaflowTestPipeline(t, BackendMBT, 0, 1<<10)
	e := prefixEntry(2, 0x0A010000, 16, 7)
	if _, err := p.Begin().Add(0, portEntry(2)).Add(1, e).Commit(); err != nil {
		t.Fatal(err)
	}

	h := openflow.Header{InPort: 2, IPv4Dst: 0x0A010203, EthType: 0x0800, IPProto: 6}
	exec := func(h openflow.Header) Result { return p.Execute(&h) }
	if got := exec(h); len(got.Outputs) != 1 || got.Outputs[0] != 7 {
		t.Fatalf("outputs = %v, want [7]", got.Outputs)
	}
	exec(h)
	if st := p.MegaflowStats(); st.Hits == 0 {
		t.Fatal("second packet did not hit the megaflow tier")
	}

	if _, err := p.Begin().DeleteStrict(1, e.Priority, e.Matches...).Commit(); err != nil {
		t.Fatal(err)
	}
	got := exec(h)
	if len(got.Outputs) != 0 || !got.SentToController {
		t.Fatalf("post-delete result = %+v, want controller miss (stale megaflow served?)", got)
	}
}

// TestExecuteMegaflowZeroAlloc is the tier's performance contract: both
// the hit path (masked probe) and the install path (traced walk +
// in-place seqlock publish of an interned Result) must be allocation-
// free in steady state.
func TestExecuteMegaflowZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc regression measured without -race")
	}
	p := megaflowTestPipeline(t, BackendMBT, 0, 1<<10)
	tx := p.Begin()
	tx.Add(0, portEntry(2))
	for i := 0; i < 16; i++ {
		tx.Add(1, prefixEntry(2, uint64(i)<<24, 8, 100+uint32(i)))
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	p.Refresh()

	// Distinct flows across the installed /8s: every packet is new, so
	// nothing would ever hit an exact-match cache.
	rng := xrand.New(99)
	trace := make([]openflow.Header, 256)
	for i := range trace {
		trace[i] = openflow.Header{
			InPort:  2,
			IPv4Dst: uint32(i%16)<<24 | rng.Uint32()&0x00FFFFFF,
			IPv4Src: rng.Uint32(),
			EthType: 0x0800,
			IPProto: 6,
		}
	}
	h := new(openflow.Header)

	// Warm: install every region and intern every distinct Result.
	for i := range trace {
		*h = trace[i]
		p.Execute(h)
	}

	i := 0
	measure := func(name string, f func()) {
		t.Helper()
		for w := 0; w < 64; w++ {
			f()
		}
		if n := testing.AllocsPerRun(512, f); n != 0 {
			t.Errorf("%s: %.2f allocs/op in steady state, want 0", name, n)
		}
	}
	measure("megaflow hit", func() {
		*h = trace[i%len(trace)]
		p.Execute(h)
		i++
	})
	if st := p.MegaflowStats(); st.Hits == 0 {
		t.Fatal("hit-path measurement never hit the megaflow tier")
	}

	// Install path: evict everything before each packet so every Execute
	// runs a traced walk and republishes. invalidateAll only flips
	// atomics; the interned results and tuples are already allocated.
	m := p.tiers[tierMasked].Load()
	measure("megaflow install", func() {
		m.invalidateAll()
		*h = trace[i%len(trace)]
		p.Execute(h)
		i++
	})

	// The exact tier is the same structure filled the same way: with both
	// tiers on and emptied before each packet, every Execute misses both,
	// walks, and publishes into both in place.
	p.SetCacheSize(1 << 10)
	c := p.tiers[tierExact].Load()
	fills := p.CacheStats().Misses
	measure("fill of both tiers", func() {
		c.invalidateAll()
		m.invalidateAll()
		*h = trace[i%len(trace)]
		p.Execute(h)
		i++
	})
	if st := p.CacheStats(); st.Misses == fills || st.Hits != 0 {
		t.Fatalf("fill measurement did not miss the exact tier every time: %+v", st)
	}
}

// invalidateAll evicts every cached entry: it stamps each slot 0, which
// no window holds (tuples and counters are kept). The data plane never
// needs it — version windows already dead-end stale entries.
func (c *flowCache) invalidateAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, tp := range *c.tuples.Load() {
		for i := range tp.slots {
			e := &tp.slots[i]
			e.seq.Add(1)
			e.ver.Store(0)
			e.seq.Add(1)
		}
	}
}

// lpmMegaflowPipeline is one mbt table of destination prefixes with only
// the masked tier on. No walk rewrites a field, so a commit spares the
// entries its rules do not overlap.
func lpmMegaflowPipeline(t *testing.T, rules ...*openflow.FlowEntry) *Pipeline {
	t.Helper()
	p := NewPipeline()
	if _, err := p.AddTable(TableConfig{
		ID:      0,
		Fields:  []openflow.FieldID{openflow.FieldIPv4Dst},
		Backend: BackendMBT,
	}); err != nil {
		t.Fatal(err)
	}
	p.SetMegaflowSize(1 << 10)
	tx := p.Begin()
	for _, e := range rules {
		tx.Add(0, e)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return p
}

// dstEntry is one destination-prefix rule, longer prefixes first.
func dstEntry(prefix uint64, plen int, out uint32) *openflow.FlowEntry {
	return &openflow.FlowEntry{
		Priority:     1 + plen,
		Matches:      []openflow.Match{openflow.Prefix(openflow.FieldIPv4Dst, prefix, plen)},
		Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(out))},
	}
}

// outputOf is the single output port of a result, or -1.
func outputOf(r Result) int {
	if len(r.Outputs) != 1 {
		return -1
	}
	return int(r.Outputs[0])
}

// TestMegaflowCommitSparesUnaffectedRegions pins the survivor property:
// after a commit of a rule that overlaps no cached region, the masked
// tier serves every cached region again without a single new walk.
func TestMegaflowCommitSparesUnaffectedRegions(t *testing.T) {
	var rules []*openflow.FlowEntry
	for i := 0; i < 16; i++ {
		rules = append(rules, dstEntry(uint64(i)<<24, 8, 100+uint32(i)))
	}
	p := lpmMegaflowPipeline(t, rules...)
	hs := make([]openflow.Header, 16)
	for i := range hs {
		hs[i] = openflow.Header{IPv4Dst: uint32(i)<<24 | 0x010203}
		if got := outputOf(p.Execute(&hs[i])); got != 100+i {
			t.Fatalf("region %d: output %d, want %d", i, got, 100+i)
		}
	}
	before := p.MegaflowStats()
	ver := p.SnapshotVersion()
	if _, err := p.Begin().Add(0, dstEntry(0xC0A80000, 16, 5)).Commit(); err != nil {
		t.Fatal(err)
	}
	if p.SnapshotVersion() == ver {
		t.Fatal("the commit published no new snapshot")
	}
	for i := range hs {
		if got := outputOf(p.Execute(&hs[i])); got != 100+i {
			t.Fatalf("region %d after the commit: output %d, want %d", i, got, 100+i)
		}
	}
	after := p.MegaflowStats()
	if after.Misses != before.Misses || after.Hits != before.Hits+uint64(len(hs)) {
		t.Fatalf("after the commit: %d hits, %d misses; want %d hits, %d misses (every region served from the tier)",
			after.Hits, after.Misses, before.Hits+uint64(len(hs)), before.Misses)
	}
}

// staleLadder is a reader that loaded the pipeline's snapshot and tiers
// now and goes on using them, like a batch that straddles a commit.
func staleLadder(p *Pipeline) ladder {
	return ladder{s: p.loadSnapshot(), tiers: [numTiers]*flowCache{p.tiers[tierExact].Load(), p.tiers[tierMasked].Load()}, d: p.dir}
}

// TestMegaflowStragglerFillMeetsCommit pins a straggler's fill: a walk
// against the pre-commit snapshot whose fill arrives after the commit
// keeps its pre-commit stamp, so a post-commit reader tests it against
// the commit, whose rule overlaps it, and walks — its outcome was decided
// without the committed rule.
func TestMegaflowStragglerFillMeetsCommit(t *testing.T) {
	p := lpmMegaflowPipeline(t, dstEntry(0x0A000000, 8, 1))
	old := staleLadder(p)
	if _, err := p.Begin().Add(0, dstEntry(0x0A010000, 16, 9)).Commit(); err != nil {
		t.Fatal(err)
	}
	h := openflow.Header{IPv4Dst: 0x0A010203}
	var res Result
	old.exec(&h, &res)
	if got := outputOf(res); got != 1 {
		t.Fatalf("pre-commit reader: output %d, want 1", got)
	}
	h = openflow.Header{IPv4Dst: 0x0A010203}
	if got := outputOf(p.Execute(&h)); got != 9 {
		t.Fatalf("post-commit lookup: output %d, want 9 (a swept-past walk's fill served?)", got)
	}
}

// TestMegaflowOldSnapshotMissesNewFill pins the window's upper end: a
// reader still holding the pre-commit snapshot must not be served an
// entry that a walk against the post-commit snapshot filled.
func TestMegaflowOldSnapshotMissesNewFill(t *testing.T) {
	p := lpmMegaflowPipeline(t, dstEntry(0x0A000000, 8, 1))
	old := staleLadder(p)
	if _, err := p.Begin().Add(0, dstEntry(0x0A010000, 16, 9)).Commit(); err != nil {
		t.Fatal(err)
	}
	h := openflow.Header{IPv4Dst: 0x0A010203}
	if got := outputOf(p.Execute(&h)); got != 9 {
		t.Fatalf("post-commit lookup: output %d, want 9", got)
	}
	h = openflow.Header{IPv4Dst: 0x0A010203}
	var res Result
	old.exec(&h, &res)
	if got := outputOf(res); got != 1 {
		t.Fatalf("pre-commit reader: output %d, want 1 (served the post-commit fill?)", got)
	}
}

// TestRevalidationMatchesOverlapOracle is the read-time test's property test:
// over seeded tuple masks, entries and logs of one to three commits, a
// reader must be served exactly the entries stamped with its snapshot's
// version and those stamped inside its window that every commit logged
// since spares — no shadow's overlapsMegaflow marks the entry's key as it
// arrived or, for a walk that wrote metadata once, its key with the
// written bits in place; a walk that rewrote otherwise meets any rule on
// a rewritten field — and must re-stamp exactly the revalidated ones.
// Some commits compiled before the last tuple was learned: its older
// entries are misses. Shadows mix exact, prefix (IPv4, and IPv6 on either
// side of the word boundary), range and all-wildcard matches; in half the
// commits every rule fixes a shared set of fields, so P often spans
// several words.
func TestRevalidationMatchesOverlapOracle(t *testing.T) {
	rng := xrand.New(20150908)
	pick := func(vs ...uint64) uint64 { return vs[rng.Intn(len(vs))] }
	header := func() openflow.Header {
		return openflow.Header{
			InPort:   uint32(pick(1, 2, 3)),
			EthType:  uint16(pick(0x0800, 0x86DD)),
			IPv4Src:  uint32(pick(0x0A000001, 0x0A000002)),
			IPv4Dst:  uint32(pick(0x0A000001, 0x0A010001, 0x0B000001, 0xC0A80101)),
			SrcPort:  uint16(pick(80, 443, 8080)),
			DstPort:  uint16(pick(53, 80, 443)),
			IPv6Dst:  bitops.U128{Hi: pick(1<<63, 1<<63|1<<40, 3<<60), Lo: pick(1, 2, 1<<63|1)},
			Metadata: pick(0, 1),
			IPProto:  uint8(pick(6, 17)),
		}
	}
	maskParts := []func(m *flowMask){
		func(m *flowMask) { m.orFieldFull(openflow.FieldInPort) },
		func(m *flowMask) { m.orFieldFull(openflow.FieldEthType) },
		func(m *flowMask) { m.orFieldFull(openflow.FieldIPv4Src) },
		func(m *flowMask) { m.orField(openflow.FieldIPv4Dst, int(pick(8, 16, 32))) },
		func(m *flowMask) { m.orFieldFull(openflow.FieldSrcPort) },
		func(m *flowMask) { m.orFieldFull(openflow.FieldDstPort) },
		func(m *flowMask) { m.orField(openflow.FieldIPv6Dst, int(pick(32, 64, 96, 128))) },
		func(m *flowMask) { m.orFieldFull(openflow.FieldMetadata) },
		func(m *flowMask) { m.orFieldFull(openflow.FieldIPProto) },
	}
	matchers := []func(h *openflow.Header) openflow.Match{
		func(h *openflow.Header) openflow.Match { return openflow.Exact(openflow.FieldInPort, uint64(h.InPort)) },
		func(h *openflow.Header) openflow.Match {
			return openflow.Exact(openflow.FieldEthType, uint64(h.EthType))
		},
		func(h *openflow.Header) openflow.Match {
			return openflow.Exact(openflow.FieldIPv4Src, uint64(h.IPv4Src))
		},
		func(h *openflow.Header) openflow.Match {
			return openflow.Prefix(openflow.FieldIPv4Dst, uint64(h.IPv4Dst), int(pick(8, 16, 24, 32)))
		},
		func(h *openflow.Header) openflow.Match {
			return openflow.Prefix128(openflow.FieldIPv6Dst, h.IPv6Dst, int(pick(40, 64, 65, 96, 128)))
		},
		func(h *openflow.Header) openflow.Match { return openflow.Exact(openflow.FieldMetadata, h.Metadata) },
		func(h *openflow.Header) openflow.Match {
			return openflow.Exact(openflow.FieldIPProto, uint64(h.IPProto))
		},
		func(*openflow.Header) openflow.Match {
			lo := pick(0, 80, 400, 1024)
			return openflow.Range(openflow.FieldSrcPort, lo, lo+pick(0, 100, 1000))
		},
		func(*openflow.Header) openflow.Match {
			lo := pick(0, 53, 443)
			return openflow.Range(openflow.FieldDstPort, lo, lo+pick(0, 1, 500))
		},
		func(*openflow.Header) openflow.Match { return openflow.Any(openflow.FieldEthSrc) },
	}
	rewritable := []openflow.FieldID{openflow.FieldMetadata, openflow.FieldIPv4Dst, openflow.FieldVLANID}
	const base, version = 4, 11 // the reader's window; stamps run 1…12
	res := &Result{}
	var refs [ctrRefMax]uint32
	for c := 0; c < 2000; c++ {
		fc := newFlowCache(tierMasked, megaflowFloorEntries)
		var tiers [numTiers]atomic.Pointer[flowCache]
		tiers[tierMasked].Store(fc)
		tuples := []cacheTuple{}
		for n := 1 + rng.Intn(4); len(tuples) < n; {
			var m flowMask
			for _, part := range maskParts {
				if rng.Intn(2) == 0 {
					part(&m)
				}
			}
			tuples = append(tuples, newCacheTuple(&m, fc.entries))
		}
		fc.tuples.Store(&tuples)
		for ti := range tuples {
			tp := &tuples[ti]
			for i := range tp.slots {
				if rng.Intn(4) == 0 {
					continue // never filled
				}
				h := header()
				var k flowKey
				packFlowKey(&k, &h)
				for w := range k {
					k[w] &= tp.mask[w]
				}
				var rw rewrite
				switch rng.Intn(8) {
				case 0: // a set-field, or a second metadata write
					rw.setField(rewritable[rng.Intn(len(rewritable))])
				case 1, 2: // one metadata write
					rw.writeMetadata(pick(0, 1, 2, 0x100), pick(1, 0xFF, ^uint64(0)))
				}
				tp.slots[i].write(nil, &k, &rw, 1+uint64(rng.Intn(12)), res, &refs, 0)
			}
		}

		// The log, newest first: the commit that published the reader's
		// snapshot, and up to two earlier ones.
		snap := &snapshot{version: version, cacheWindow: cacheWindow{base: base}}
		vers := []uint64{version}
		for _, v := range []uint64{9, 7} {
			if rng.Intn(2) == 0 {
				vers = append(vers, v-uint64(rng.Intn(2)))
			}
		}
		logged := make([][]ruleShadow, len(vers))
		known := make([]int, len(vers)) // tuples the commit compiled for
		for ri, ver := range vers {
			var shared []int // matcher indices every rule of the commit uses
			if rng.Intn(2) == 0 {
				for j := 0; j < 2+rng.Intn(2); j++ {
					shared = append(shared, rng.Intn(7)) // a non-range, non-wildcard matcher
				}
			}
			shadows := make([]ruleShadow, 1+rng.Intn(16))
			for si := range shadows {
				h := header()
				var e openflow.FlowEntry
				for _, j := range shared {
					e.Matches = append(e.Matches, matchers[j](&h))
				}
				if rng.Intn(20) != 0 { // else all-wildcard, unless shared
					for j := range matchers {
						if rng.Intn(3) == 0 {
							e.Matches = append(e.Matches, matchers[j](&h))
						}
					}
				}
				shadows[si] = shadowOf(&e)
			}
			known[ri] = len(tuples)
			if ri > 0 && rng.Intn(4) == 0 {
				known[ri]-- // the last tuple was learned after this commit
			}
			early := tuples[:known[ri]]
			fc.tuples.Store(&early)
			snap.log[ri] = newCommitRecord(ver, shadows, &tiers)
			fc.tuples.Store(&tuples)
			logged[ri] = shadows
		}
		snap.nlog = len(vers)

		for ti := range tuples {
			tp := &tuples[ti]
			for i := range tp.slots {
				e := &tp.slots[i]
				stamp := e.ver.Load()
				var key flowKey
				for w := range key {
					key[w] = e.key[w].Load()
				}
				rw := rewrite{fields: e.rewritten.Load(), meta: e.meta.Load(), mask: e.metaMask.Load()}
				// A single metadata write is tested on both views; any other
				// rewrite by the conservative rule.
				views, conservative := []flowMask{flowMask(key)}, rw.fields
				if rw.mask != 0 {
					conservative = 0
					v := flowMask(key)
					v[metaWord] = v[metaWord]&^rw.mask | rw.meta
					views = append(views, v)
				}
				want := stamp >= base && stamp <= version
				for ri, ver := range vers {
					if !want || ver <= stamp {
						break
					}
					if ti >= known[ri] {
						want = false
					}
					for si := range logged[ri] {
						for _, v := range views {
							if logged[ri][si].overlapsMegaflow(&v, &tp.mask, conservative) {
								want = false
							}
						}
					}
				}

				var hit slotHit
				got := e.read(&key, snap.window(), &hit) != nil
				if got && hit.v != version {
					if got = snap.spares(tierMasked, fc, ti, &key, &tp.mask, &hit); got {
						fc.restamp(&hit, version)
					}
				}
				if got != want {
					t.Fatalf("case %d tuple %d slot %d: stamp %d, rewrite %+v: served %v, want %v (log %v, %d tuples, compiled for %v, tuple mask %x)",
						c, ti, i, stamp, rw, got, want, vers, len(tuples), known, tp.mask)
				}
				wantStamp := stamp
				if want {
					wantStamp = version
				}
				if after := e.ver.Load(); after != wantStamp {
					t.Fatalf("case %d tuple %d slot %d: stamp %d after the read, want %d", c, ti, i, after, wantStamp)
				}
			}
		}
	}
}

// TestMegaflowSurvivesMetadataCommit pins the rewritten-metadata view on
// the routing pair: table 0 writes metadata := in_port and table 1
// matches (metadata, destination), so every cached walk wrote metadata
// once and its key holds the metadata the packet arrived with. With
// regions warm for in_ports A and B, a route committed for A's metadata
// must leave B's regions, and A's that it does not cover, served without
// a walk, while the one A region it covers walks and answers with it.
func TestMegaflowSurvivesMetadataCommit(t *testing.T) {
	const a, b = 1, 2
	f := &filterset.RouteFilter{Name: "pair"}
	var hs []openflow.Header
	for _, port := range []uint32{a, b} {
		for i := uint32(0); i < 8; i++ {
			f.Rules = append(f.Rules, filterset.RouteRule{InPort: port, Prefix: 10<<24 | i<<16, PrefixLen: 16, NextHop: 10*port + i})
			hs = append(hs, openflow.Header{InPort: port, IPv4Dst: 10<<24 | i<<16 | 7<<8 | 5, EthType: 0x0800})
		}
	}
	p, err := BuildRoute(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.SetMegaflowSize(1 << 10)
	exec := func(h openflow.Header) int { return outputOf(p.Execute(&h)) }
	for pass := 0; pass < 2; pass++ {
		for i, h := range hs {
			if got, want := exec(h), int(10*h.InPort)+i%8; got != want {
				t.Fatalf("pass %d, packet %d: output %d, want %d", pass, i, got, want)
			}
		}
	}
	before := p.MegaflowStats()
	if before.Hits != uint64(len(hs)) {
		t.Fatalf("warm-up: %+v, want %d hits (the second pass served from the tier)", before, len(hs))
	}

	// A /24 for A's metadata inside A's region 10.3.0.0/16.
	route := &openflow.FlowEntry{
		Priority: 1 + 24,
		Matches: []openflow.Match{
			openflow.Exact(openflow.FieldMetadata, a),
			openflow.Prefix(openflow.FieldIPv4Dst, 10<<24|3<<16|7<<8, 24),
		},
		Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(99))},
	}
	if _, err := p.Begin().Add(1, route).Commit(); err != nil {
		t.Fatal(err)
	}
	for i, h := range hs {
		want := int(10*h.InPort) + i%8
		if h.InPort == a && i == 3 {
			want = 99
		}
		if got := exec(h); got != want {
			t.Fatalf("after the commit, packet %d (in_port %d): output %d, want %d", i, h.InPort, got, want)
		}
	}
	after := p.MegaflowStats()
	if walks := after.Misses - before.Misses; walks != 1 || after.Hits-before.Hits != uint64(len(hs)-1) {
		t.Fatalf("after the commit: %d walks and %d hits over %d packets, want 1 walk (A's covered region) and the rest served",
			walks, after.Hits-before.Hits, len(hs))
	}
}

// TestRestampRechecksTheSlot pins restamp's re-check under the tier's
// mutex: a reader that revalidated an entry must not move the stamp of a
// write that replaced it meanwhile — a straggler's fill, stamped before a
// commit its walk did not see — nor move back a stamp another reader
// moved on first.
func TestRestampRechecksTheSlot(t *testing.T) {
	fc := newFlowCache(tierExact, microflowFloorEntries)
	e := &(*fc.tuples.Load())[0].slots[0]
	var k flowKey
	var refs [ctrRefMax]uint32
	res := &Result{}
	w := window{lo: 1, hi: 3}
	e.write(nil, &k, &rewrite{}, 2, res, &refs, 0)
	var hit slotHit
	if e.read(&k, w, &hit) == nil {
		t.Fatal("the entry stamped 2 did not read inside [1, 3]")
	}
	e.write(nil, &k, &rewrite{}, 1, res, &refs, 0)
	fc.restamp(&hit, 3)
	if v := e.ver.Load(); v != 1 {
		t.Fatalf("a re-stamp moved a rewritten entry's stamp to %d, want its own 1", v)
	}
	var first, second slotHit
	if e.read(&k, w, &first) == nil || e.read(&k, w, &second) == nil {
		t.Fatal("the entry stamped 1 did not read inside [1, 3]")
	}
	fc.restamp(&first, 5)
	fc.restamp(&second, 3)
	if v := e.ver.Load(); v != 5 {
		t.Fatalf("stamp %d after a later reader's re-stamp, want 5", v)
	}
}
