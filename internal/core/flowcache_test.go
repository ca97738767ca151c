package core

import (
	"sync"
	"testing"

	"ofmtl/internal/filterset"
	"ofmtl/internal/openflow"
	"ofmtl/internal/traffic"
	"ofmtl/internal/xrand"
)

// mirroredMACPipelines builds two identical MAC pipelines from one
// filter; the first gets a microflow cache, the second stays uncached
// and serves as the reference walk.
func mirroredMACPipelines(t *testing.T, cacheEntries int) (*filterset.MACFilter, *Pipeline, *Pipeline) {
	t.Helper()
	f, err := filterset.GenerateMAC("bbrb", filterset.DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := BuildMAC(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	cached.SetCacheSize(cacheEntries)
	ref, err := BuildMAC(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	return f, cached, ref
}

func sameResult(a, b Result) bool {
	if a.Matched != b.Matched || a.SentToController != b.SentToController ||
		a.Dropped != b.Dropped || a.MatchedTables != b.MatchedTables ||
		len(a.Outputs) != len(b.Outputs) || len(a.TablesVisited) != len(b.TablesVisited) {
		return false
	}
	for i := range a.Outputs {
		if a.Outputs[i] != b.Outputs[i] {
			return false
		}
	}
	for i := range a.TablesVisited {
		if a.TablesVisited[i] != b.TablesVisited[i] {
			return false
		}
	}
	return true
}

// TestMicroflowCacheInvalidation asserts a flow-mod retires cached
// results: the same header must observe the pre-insert, post-insert and
// post-remove outcomes in order, even though each was cached.
func TestMicroflowCacheInvalidation(t *testing.T) {
	_, p, _ := mirroredMACPipelines(t, 1<<12)
	h := openflow.Header{VLANID: 500, EthDst: 0xAABBCCDDEEFF}

	exec := func() Result {
		hc := h
		p.Execute(&hc) // prime
		hc = h
		return p.Execute(&hc) // served from cache
	}
	if res := exec(); !res.SentToController {
		t.Fatalf("unknown flow should miss to controller: %+v", res)
	}
	e0 := &openflow.FlowEntry{
		Priority: 1,
		Matches:  []openflow.Match{openflow.Exact(openflow.FieldVLANID, 500)},
		Instructions: []openflow.Instruction{
			openflow.WriteMetadata(500, ^uint64(0)),
			openflow.GotoTable(1),
		},
	}
	e1 := &openflow.FlowEntry{
		Priority: 1,
		Matches: []openflow.Match{
			openflow.Exact(openflow.FieldMetadata, 500),
			openflow.Exact(openflow.FieldEthDst, 0xAABBCCDDEEFF),
		},
		Instructions: []openflow.Instruction{
			openflow.WriteActions(openflow.Output(31)),
		},
	}
	if _, err := p.Begin().Add(0, e0).Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Begin().Add(1, e1).Commit(); err != nil {
		t.Fatal(err)
	}
	if res := exec(); !res.Matched || len(res.Outputs) != 1 || res.Outputs[0] != 31 {
		t.Fatalf("stale cached miss survived the insert: %+v", res)
	}
	if _, err := p.Begin().DeleteStrict(1, e1.Priority, e1.Matches...).Commit(); err != nil {
		t.Fatal(err)
	}
	if res := exec(); !res.SentToController {
		t.Fatalf("stale cached match survived the removal: %+v", res)
	}
	if st := p.CacheStats(); st.Hits == 0 || st.Misses == 0 {
		t.Errorf("stats did not move: %+v", st)
	}
}

// TestMicroflowCacheEvictionAndSizing covers capacity behaviour: the
// table is fixed-size (overflowing flows evict, correctness is kept),
// resizing replaces the cache, and size 0 disables it.
func TestMicroflowCacheEvictionAndSizing(t *testing.T) {
	f, p, ref := mirroredMACPipelines(t, 1) // clamps to the minimum table
	st := p.CacheStats()
	if st.Entries <= 0 || st.Masks != 1 {
		t.Fatalf("configured cache reports %d entries, %d masks (want one exact-match tuple)", st.Entries, st.Masks)
	}
	// Far more distinct flows than slots: every flow still classifies
	// exactly like the reference walk, evictions notwithstanding.
	trace := traffic.MACTrace(f, 4*st.Entries, 0.8, 21)
	for i := range trace {
		hc, hr := trace[i], trace[i]
		if got, want := p.Execute(&hc), ref.Execute(&hr); !sameResult(got, want) {
			t.Fatalf("flow %d misclassified under eviction pressure: %+v vs %+v", i, got, want)
		}
	}
	// Re-probing a hot flow keeps hitting even under pressure from a
	// colliding population.
	rng := xrand.New(5)
	hot := trace[0]
	before := p.CacheStats()
	for i := 0; i < 64; i++ {
		hc := hot
		p.Execute(&hc)
		hd := trace[rng.Intn(len(trace))]
		p.Execute(&hd)
	}
	after := p.CacheStats()
	if after.Hits <= before.Hits {
		t.Error("hot flow re-probes produced no cache hits")
	}
	// Growing the cache replaces it; correctness and stats survive.
	p.SetCacheSize(1 << 14)
	if got := p.CacheStats().Entries; got < 1<<14 {
		t.Errorf("resized cache reports %d entries, want >= %d", got, 1<<14)
	}
	hc := hot
	p.Execute(&hc)
	// Size 0 disables the fast path entirely.
	p.SetCacheSize(0)
	if st := p.CacheStats(); st.Entries != 0 || st.Hits != 0 || st.Misses != 0 {
		t.Errorf("disabled cache still reports %+v", st)
	}
	hc = hot
	hr := hot
	if got, want := p.Execute(&hc), ref.Execute(&hr); !sameResult(got, want) {
		t.Fatalf("uncached execute disagrees after disable: %+v vs %+v", got, want)
	}
}

// TestMicroflowCacheCollidingFillsNeverTear hammers one probe window of
// the exact tier: more colliding keys than the window holds, executed from
// several goroutines at once, so every slot of the window is continuously
// overwritten in place while others read it. Whatever a reader gets — a
// hit on a slot mid-rewrite included — must be that header's own outcome.
func TestMicroflowCacheCollidingFillsNeverTear(t *testing.T) {
	f := filterset.GenerateLPM("lpm", 2000, filterset.DefaultSeed)
	ref := admissionPipeline(t, f, 0, 0)
	p := admissionPipeline(t, f, microflowFloorEntries, 0)
	c := p.tiers[tierExact].Load()

	// Bucket fresh destinations by home slot and keep the fullest bucket
	// outside the admission sample: its keys all start probing at one
	// slot, and no verdict ever bypasses them.
	byHome := make(map[uint64][]openflow.Header)
	var home uint64
	for _, h := range traffic.LPMTrace(f, 32<<10, 0.9, 7) {
		var k flowKey
		packFlowKey(&k, &h)
		fp := k.fingerprint()
		if c.cell(fp) == 0 {
			continue
		}
		slot := fp & uint64(c.entries-1)
		byHome[slot] = append(byHome[slot], h)
		if len(byHome[slot]) > len(byHome[home]) {
			home = slot
		}
	}
	keys := byHome[home]
	if len(keys) < 2*cacheProbe {
		t.Fatalf("fullest home slot has %d keys, want >= %d", len(keys), 2*cacheProbe)
	}
	want := make([]Result, len(keys))
	outcomes := make(map[uint32]bool)
	for i := range keys {
		h := keys[i]
		want[i] = ref.Execute(&h)
		if len(want[i].Outputs) > 0 {
			outcomes[want[i].Outputs[0]] = true
		}
	}
	if len(outcomes) < 2 {
		t.Fatalf("colliding keys share one outcome (%v): a torn read could not show", outcomes)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := xrand.New(uint64(g) + 1)
			for n := 0; n < 20000; n++ {
				// Mostly a small hot subset (hits between the evictions),
				// sometimes anything from the bucket.
				i := rng.Intn(cacheProbe + 1)
				if n%4 == 0 {
					i = rng.Intn(len(keys))
				}
				h := keys[i]
				if got := p.Execute(&h); !sameResult(got, want[i]) {
					t.Errorf("goroutine %d, key %d: got %+v, cache-less walk says %+v", g, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := p.CacheStats(); st.Hits == 0 || st.Misses < uint64(len(keys)) || st.Bypassed != 0 {
		t.Errorf("the window was not both hit and refilled: %+v", st)
	}
}

// TestFlowKeyDistinguishesEveryField pins the cache key packing: two
// headers differing in any single field — including bits beyond a
// field's nominal width, which the wire codec does not mask — must pack
// to different keys, or the cache would serve one flow's Result for
// another. The ARPOp/MPLS and EthSrc/VLANPrio pairs are regression
// cases for overlapping-shift bugs.
func TestFlowKeyDistinguishesEveryField(t *testing.T) {
	muts := []struct {
		name string
		mut  func(*openflow.Header)
	}{
		{"InPort", func(h *openflow.Header) { h.InPort = 1 << 31 }},
		{"EthSrc-low", func(h *openflow.Header) { h.EthSrc = 1 }},
		{"EthSrc-high", func(h *openflow.Header) { h.EthSrc = 1 << 48 }},
		{"EthDst-high", func(h *openflow.Header) { h.EthDst = 1 << 63 }},
		{"EthType", func(h *openflow.Header) { h.EthType = 0x86DD }},
		{"VLANID", func(h *openflow.Header) { h.VLANID = 1 }},
		{"VLANPrio", func(h *openflow.Header) { h.VLANPrio = 1 }},
		{"MPLS-low", func(h *openflow.Header) { h.MPLS = 1 }},
		{"MPLS-high", func(h *openflow.Header) { h.MPLS = 1 << 31 }},
		{"IPv4Src", func(h *openflow.Header) { h.IPv4Src = 1 }},
		{"IPv4Dst", func(h *openflow.Header) { h.IPv4Dst = 1 }},
		{"IPv6Src", func(h *openflow.Header) { h.IPv6Src.Lo = 1 }},
		{"IPv6Dst", func(h *openflow.Header) { h.IPv6Dst.Hi = 1 }},
		{"IPProto", func(h *openflow.Header) { h.IPProto = 6 }},
		{"IPToS", func(h *openflow.Header) { h.IPToS = 1 }},
		{"SrcPort", func(h *openflow.Header) { h.SrcPort = 1 }},
		{"DstPort", func(h *openflow.Header) { h.DstPort = 1 }},
		{"ARPOp", func(h *openflow.Header) { h.ARPOp = 0x0100 }},
		{"ARPSPA", func(h *openflow.Header) { h.ARPSPA = 1 }},
		{"ARPTPA", func(h *openflow.Header) { h.ARPTPA = 1 }},
		{"Metadata", func(h *openflow.Header) { h.Metadata = 1 }},
	}
	keys := make(map[flowKey]string, len(muts)+1)
	var zero flowKey
	packFlowKey(&zero, &openflow.Header{})
	keys[zero] = "zero"
	for _, m := range muts {
		var h openflow.Header
		m.mut(&h)
		var k flowKey
		packFlowKey(&k, &h)
		if prev, dup := keys[k]; dup {
			t.Errorf("headers %q and %q pack to the same cache key", m.name, prev)
		}
		keys[k] = m.name
	}
}

// TestExecuteBatchEdges covers the batch entry points' degenerate
// inputs: nil and empty batches, nil header slots, and reply-slice
// reuse through ExecuteBatchInto.
func TestExecuteBatchEdges(t *testing.T) {
	f, p, _ := mirroredMACPipelines(t, 1<<10)
	if res := p.ExecuteBatch(nil); len(res) != 0 {
		t.Fatalf("nil batch returned %d results", len(res))
	}
	if res := p.ExecuteBatchInto([]*openflow.Header{}, nil); len(res) != 0 {
		t.Fatalf("empty batch returned %d results", len(res))
	}
	if res := p.Execute(nil); !res.SentToController {
		t.Fatalf("nil header Execute: %+v", res)
	}

	trace := traffic.MACTrace(f, 8, 1.0, 2)
	hs := make([]*openflow.Header, 0, len(trace)+2)
	scratch := make([]openflow.Header, len(trace))
	hs = append(hs, nil)
	for i := range trace {
		scratch[i] = trace[i]
		hs = append(hs, &scratch[i])
	}
	hs = append(hs, nil)
	res := p.ExecuteBatch(hs)
	if len(res) != len(hs) {
		t.Fatalf("batch returned %d results for %d headers", len(res), len(hs))
	}
	for _, i := range []int{0, len(hs) - 1} {
		if !res[i].SentToController || res[i].Matched {
			t.Fatalf("nil header slot %d: %+v", i, res[i])
		}
	}
	for i := 1; i < len(hs)-1; i++ {
		h := trace[i-1]
		if want := p.Execute(&h); !sameResult(res[i], want) {
			t.Fatalf("slot %d: %+v, want %+v", i, res[i], want)
		}
	}

	// Into must reuse a sufficiently large reply slice.
	buf := make([]Result, 0, len(hs))
	out := p.ExecuteBatchInto(hs, buf)
	if len(out) != len(hs) || &out[0] != &buf[:1][0] {
		t.Error("ExecuteBatchInto re-allocated a reply slice with sufficient capacity")
	}
	// A short slice grows.
	short := make([]Result, 1)
	out = p.ExecuteBatchInto(hs, short)
	if len(out) != len(hs) {
		t.Fatalf("grown batch returned %d results", len(out))
	}
}
