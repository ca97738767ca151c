package core

import (
	"testing"

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

// invalidateAll evicts every cached entry (tuples and counters are kept).
// The data plane never needs it — version mismatches already dead-end
// stale entries.
func (c *flowCache) invalidateAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, tp := range *c.tuples.Load() {
		for i := range tp.slots {
			tp.slots[i].restamp(0)
		}
	}
}
