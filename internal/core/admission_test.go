package core

import (
	"testing"
	"time"

	"ofmtl/internal/cow"
	"ofmtl/internal/filterset"
	"ofmtl/internal/openflow"
	"ofmtl/internal/traffic"
)

// admissionPipeline builds a one-table LPM pipeline over f with the given
// tier sizes (0 = tier off).
func admissionPipeline(t testing.TB, f *filterset.LPMFilter, micro, mega int) *Pipeline {
	t.Helper()
	p := NewPipeline()
	tab, err := p.AddTable(TableConfig{
		ID:     0,
		Fields: []openflow.FieldID{openflow.FieldIPv4Dst},
		Miss:   MissPolicy{Kind: MissController},
	})
	if err != nil {
		t.Fatal(err)
	}
	entries := f.FlowEntries()
	for i := range entries {
		if err := tab.Insert(&entries[i]); err != nil {
			t.Fatal(err)
		}
	}
	p.SetCacheSize(micro)
	p.SetMegaflowSize(mega)
	p.Refresh()
	return p
}

// The phase-change trace: destinations that never repeat (both tiers
// thrash), then admissionHot flows round-robin (both tiers would hit
// nearly always), then fresh destinations again.
const (
	admissionPhase = 48 << 10
	admissionHot   = 1 << 10
	// admissionReact is the packet count within which a tier must have
	// changed state after a phase change: one sampled window that
	// straddles the change, one clean one (16·admitWindow packets each,
	// give or take the sample's luck), and a batch of slack.
	admissionReact = 40 << 10
)

func admissionTrace(f *filterset.LPMFilter) []openflow.Header {
	trace := traffic.LPMTrace(f, admissionPhase, 0.9, 1)
	hot := traffic.LPMTrace(f, admissionHot, 0.9, 2)
	for i := 0; i < admissionPhase; i++ {
		trace = append(trace, hot[i%len(hot)])
	}
	return append(trace, traffic.LPMTrace(f, admissionPhase, 0.9, 3)...)
}

// TestAdmissionPhaseChange drives thrash → locality → thrash through each
// tier alone and both together, one packet at a time and in 4-worker
// batches: every result must equal the cache-less walk's, each tier must
// go bypassed and come back within admissionReact packets of the phase
// change that calls for it, and the counters must keep their meaning.
// The churn legs also commit every 16 batches — a strict delete and a
// re-add of one rule, which changes no verdict. A commit keeps a serving
// tier's entries that the rule does not overlap, so with both tiers on
// the exact tier stays armed through the hot phase; a commit while no
// tier serves wipes the samples, so the tiers must re-arm on samples the
// commits wipe.
func TestAdmissionPhaseChange(t *testing.T) {
	f := filterset.GenerateLPM("lpm", 30000, filterset.DefaultSeed)
	trace := admissionTrace(f)
	ref := admissionPipeline(t, f, 0, 0)
	want := make([]Result, len(trace))
	for i := range trace {
		h := trace[i]
		want[i] = ref.Execute(&h)
	}
	const (
		batch      = 256
		churnEvery = 16 * batch
	)
	churned := f.FlowEntries()[0]
	p := admissionPipeline(t, f, 0, 0)
	p.SetWorkers(4)
	type leg struct {
		name           string
		batched, churn bool
	}
	execute, batch4, churn := leg{"execute", false, false}, leg{"batch4", true, false}, leg{"churn", false, true}
	for _, tc := range []struct {
		name        string
		micro, mega int
		legs        []leg
	}{
		{"microflow", 4096, 0, []leg{execute, batch4}},
		{"megaflow", 0, 2048, []leg{execute, batch4, churn}},
		{"both", 4096, 2048, []leg{execute, batch4, churn}},
	} {
		for _, lg := range tc.legs {
			t.Run(tc.name+"/"+lg.name, func(t *testing.T) {
				p.SetCacheSize(tc.micro) // fresh tiers, armed
				p.SetMegaflowSize(tc.mega)
				// flips[i] is the packet count at which the watched tier's
				// i-th state change was seen: bypass, re-arm, bypass.
				var flips []int
				armed := true
				hs := make([]openflow.Header, batch)
				ptrs := make([]*openflow.Header, batch)
				var res []Result
				for at := 0; at < len(trace); at += batch {
					if lg.churn && at > 0 && at%churnEvery == 0 {
						tr, err := p.Begin().DeleteStrict(0, churned.Priority, churned.Matches...).Add(0, &churned).Commit()
						if err != nil || tr.Deleted != 1 || tr.Added != 1 {
							t.Fatalf("packet %d: churn commit: %+v, %v", at, tr, err)
						}
					}
					copy(hs, trace[at:at+batch])
					if lg.batched {
						for i := range hs {
							ptrs[i] = &hs[i]
						}
						res = p.ExecuteBatchInto(ptrs, res)
					} else {
						res = res[:0]
						for i := range hs {
							res = append(res, p.Execute(&hs[i]))
						}
					}
					for i := range res {
						if !sameResult(res[i], want[at+i]) {
							t.Fatalf("packet %d: got %+v, cache-less walk says %+v", at+i, res[i], want[at+i])
						}
					}
					now := p.CacheStats().Armed
					if tc.micro == 0 {
						now = p.MegaflowStats().Armed
					}
					if now != armed {
						armed = now
						flips = append(flips, at+batch)
					}
				}
				t.Logf("watched tier changed state at packets %v", flips)
				if len(flips) != 3 {
					t.Fatalf("watched tier changed state at packets %v, want bypass, re-arm, bypass", flips)
				}
				for phase, at := range flips {
					if late := at - phase*admissionPhase; late < 0 || late > admissionReact {
						t.Errorf("state change %d came %d packets into phase %d, want within 0…%d", phase, late, phase, admissionReact)
					}
				}
				cs, ms := p.CacheStats(), p.MegaflowStats()
				reachMega := uint64(len(trace))
				if tc.micro > 0 {
					reachMega = cs.Misses
					if cs.Hits+cs.Misses != uint64(len(trace)) || cs.Bypassed == 0 || cs.Bypassed >= cs.Misses {
						t.Errorf("microflow counters after %d packets: %+v", len(trace), cs)
					}
				}
				if tc.mega > 0 && (ms.Hits+ms.Misses != reachMega || ms.Bypassed == 0 || ms.Bypassed >= ms.Misses) {
					t.Errorf("megaflow counters with %d packets reaching the tier: %+v", reachMega, ms)
				}
			})
		}
	}
}

// window feeds the sample cell one verdict window at the given hit share
// (in eighths) and evaluates.
func (a *admission) window(eighths uint64) {
	a.ctr[0].hits.Add(admitWindow * eighths / 8)
	a.ctr[0].misses.Add(admitWindow * (8 - eighths) / 8)
	a.evaluate()
}

// TestAdmissionHysteresis pins the rule's two thresholds on the bare
// state machine.
func TestAdmissionHysteresis(t *testing.T) {
	var a admission
	step := func(eighths uint64, wantBypassed bool, why string) {
		t.Helper()
		a.window(eighths)
		if got := a.bypassed.Load(); got != wantBypassed {
			t.Fatalf("%s: bypassed = %v after a window at %d/8 hits", why, got, eighths)
		}
	}
	step(3, false, "an armed tier between the thresholds stays armed")
	step(2, false, "1/4 is not under 1/4")
	step(1, true, "under 1/4 bypasses")
	step(3, true, "a bypassed tier between the thresholds stays bypassed")
	step(4, false, "1/2 re-arms")
	step(0, true, "thrash bypasses")
	a.ctr[0].misses.Add(admitWindow / 2)
	if a.evaluate(); !a.bypassed.Load() {
		t.Fatal("half a window of lookups issued a verdict")
	}
	step(8, false, "locality re-arms")
}

// TestAdmissionCyclingSetStaysBypassed cycles a working set eight times
// the microflow tier's capacity: the sampled keys own 1/16 of the slots,
// so they thrash exactly as the whole tier would and never look resident
// — one bypass, no re-arm.
func TestAdmissionCyclingSetStaysBypassed(t *testing.T) {
	f := filterset.GenerateLPM("lpm", 2000, filterset.DefaultSeed)
	p := admissionPipeline(t, f, 4096, 0)
	trace := traffic.LPMTrace(f, 32<<10, 0.9, 1)
	flips := 0
	for pass := 0; pass < 6; pass++ {
		for i := range trace {
			h := trace[i]
			p.Execute(&h)
			if i%256 == 255 && p.CacheStats().Armed != (flips%2 == 0) {
				flips++
			}
		}
	}
	if st := p.CacheStats(); flips != 1 || st.Armed {
		t.Errorf("microflow tier changed state %d times over 6 passes, want one bypass: %+v", flips, st)
	}
}

// TestAdmissionCommitsDoNotFlap runs a high-locality trace with a commit
// every other pass over the hot flows. The committed rule matches every
// packet (at the lowest priority, under every installed rule), so every
// commit invalidates the whole microflow tier, which halves the tier's
// hit share: above the bypass threshold, so the tier must stay armed
// throughout.
func TestAdmissionCommitsDoNotFlap(t *testing.T) {
	f := filterset.GenerateLPM("lpm", 2000, filterset.DefaultSeed)
	p := admissionPipeline(t, f, 4096, 0)
	hot := traffic.LPMTrace(f, admissionHot, 0.9, 2)
	extra := *lpmRule(0, 0, 4242)
	const passes = 128 // 8 verdict windows
	for pass := 0; pass < passes; pass++ {
		if pass%2 == 0 {
			var err error
			if pass%4 == 0 {
				_, err = p.Begin().Add(0, &extra).Commit()
			} else {
				_, err = p.Begin().DeleteStrict(0, extra.Priority, extra.Matches...).Commit()
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		for i := range hot {
			h := hot[i]
			p.Execute(&h)
		}
		if st := p.CacheStats(); !st.Armed || st.Bypassed != 0 {
			t.Fatalf("pass %d: commits flapped the microflow tier: %+v", pass, st)
		}
	}
	st := p.CacheStats()
	if share := float64(st.Hits) / float64(st.Hits+st.Misses); share < 0.45 || share > 0.55 {
		t.Errorf("hit share %.2f: the trace no longer sits between the thresholds (%+v)", share, st)
	}
}

// TestBypassedMegaflowTakesNoLock holds a tier's install lock while
// unsampled packets run through the bypassed tier — the megaflow tier,
// and its exact twin: they must neither probe nor install, so they must
// not wait for it.
func TestBypassedMegaflowTakesNoLock(t *testing.T) {
	f := filterset.GenerateLPM("lpm", 30000, filterset.DefaultSeed)
	trace := traffic.LPMTrace(f, admissionReact+1024, 0.9, 1)
	for tier, name := range [numTiers]string{tierExact: "microflow", tierMasked: "megaflow"} {
		t.Run(name, func(t *testing.T) {
			sizes := [numTiers]int{}
			sizes[tier] = 2048
			p := admissionPipeline(t, f, sizes[tierExact], sizes[tierMasked])
			for i := 0; i < admissionReact; i++ {
				h := trace[i]
				p.Execute(&h)
			}
			c := p.tiers[tier].Load()
			if !c.adm.bypassed.Load() {
				t.Fatalf("tier still armed after %d all-new destinations", admissionReact)
			}
			c.mu.Lock()
			defer c.mu.Unlock()
			done := make(chan int)
			go func() {
				n := 0
				for _, h := range trace[admissionReact:] {
					var k flowKey
					packFlowKey(&k, &h)
					if c.cell(k.fingerprint()) != 0 {
						p.Execute(&h)
						n++
					}
				}
				done <- n
			}()
			select {
			case n := <-done:
				if n < 512 {
					t.Errorf("only %d unsampled packets in the tail of the trace", n)
				}
			case <-time.After(10 * time.Second):
				t.Error("unsampled packets through a bypassed tier blocked on its lock")
			}
		})
	}
}

// TestBypassedMegaflowCommitRetracts pins the commit path of a masked
// tier its admission rule has bypassed: the commit records nothing and
// publishes nothing — it retracts the snapshot, as with the tier off —
// and the next lookup publishes a snapshot with a fresh window that
// answers with the committed verdict. Back-to-back commits with no
// lookup between them then publish no views, so they copy less per
// command than a published commit may.
func TestBypassedMegaflowCommitRetracts(t *testing.T) {
	f := filterset.GenerateLPM("lpm", 30000, filterset.DefaultSeed)
	p := admissionPipeline(t, f, 0, 2048)
	trace := traffic.LPMTrace(f, admissionReact, 0.9, 1)
	for i := range trace {
		h := trace[i]
		p.Execute(&h)
	}
	if st := p.MegaflowStats(); st.Armed {
		t.Fatalf("megaflow tier still armed after %d all-new destinations: %+v", len(trace), st)
	}

	// A host route under the first destination's cached region.
	h := trace[0]
	host := lpmRule(h.IPv4Dst, 32, 4242)
	if _, err := p.Begin().Add(0, host).Commit(); err != nil {
		t.Fatal(err)
	}
	if s := p.snap.Load(); s != nil {
		t.Fatalf("the commit published snapshot version %d: a bypassed tier's commit must retract", s.version)
	}
	if got := outputOf(p.Execute(&h)); got != 4242 {
		t.Fatalf("first lookup after the commit: output %d, want 4242", got)
	}
	if s := p.snap.Load(); s == nil || s.base != s.version || s.nlog != 0 {
		t.Fatal("the lookup published no snapshot with a fresh window")
	}

	// Twenty churn commits, eight strict deletes and their re-adds each,
	// with no lookup between them.
	entries := f.FlowEntries()
	const commits = 20
	before := cow.Copied()
	for c := 0; c < commits; c++ {
		tx := p.Begin()
		for i := 0; i < 8; i++ {
			e := &entries[(c*8+i)*(len(entries)/(8*commits))]
			tx.DeleteStrict(0, e.Priority, e.Matches...)
			tx.Add(0, e)
		}
		if res, err := tx.Commit(); err != nil || res.Deleted != 8 || res.Added != 8 {
			t.Fatalf("commit %d: %+v, %v", c, res, err)
		}
		if p.snap.Load() != nil {
			t.Fatalf("commit %d published a snapshot", c)
		}
	}
	copied := float64(cow.Copied()-before) / (commits * 16)
	t.Logf("bytes copied per command over %d unpublished commits: %.0f", commits, copied)
	if copied >= maxCopiedPerCmd {
		t.Errorf("%.0f bytes copied per command, want < %d (the published path's bound)", copied, maxCopiedPerCmd)
	}
}
