//go:build failpoint

package ofmtl_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"ofmtl/internal/core"
	"ofmtl/internal/cow"
	"ofmtl/internal/failpoint"
	"ofmtl/internal/openflow"
)

// TestChaosExpirySweepRollback fires commit failpoints while expiry
// sweeps race live traffic: a sweep whose commit fails must roll back
// whole — no half-expired batch — re-arm its candidates, and leave
// rules, caches, counters and lifecycle accounting consistent. Run
// with -tags failpoint (and ideally -race).
func TestChaosExpirySweepRollback(t *testing.T) {
	cow.SealForTest(t)
	p := core.NewPipeline()
	if _, err := p.AddTable(core.TableConfig{
		ID:     0,
		Fields: []openflow.FieldID{openflow.FieldIPv4Src},
	}); err != nil {
		t.Fatal(err)
	}
	p.SetCacheSize(512)
	p.SetMegaflowSize(512)
	t0 := p.LifecycleClock()

	entry := func(src uint32, prio int) *openflow.FlowEntry {
		return &openflow.FlowEntry{
			Priority: prio,
			Matches:  []openflow.Match{openflow.Exact(openflow.FieldIPv4Src, uint64(src))},
			Instructions: []openflow.Instruction{
				openflow.WriteActions(openflow.Output(1)),
			},
		}
	}
	const timed, permanent = 64, 16
	tx := p.Begin()
	for i := 0; i < timed; i++ {
		e := entry(uint32(i+1), i+1)
		if i%2 == 0 {
			e.IdleTimeout = uint16(1 + i%3)
		} else {
			e.HardTimeout = uint16(1 + i%4)
		}
		tx.Add(0, e)
	}
	for i := 0; i < permanent; i++ {
		tx.Add(0, entry(uint32(1000+i), 100+i))
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// Live traffic on the permanent flows throughout the chaos window,
	// so sweeps race cache hits and counter touches.
	var stopTraffic atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := new(openflow.Header)
			for i := 0; !stopTraffic.Load(); i++ {
				*h = openflow.Header{IPv4Src: uint32(1000 + (i+w)%permanent), PktLen: 100}
				p.Execute(h)
			}
		}(w)
	}

	if err := failpoint.Arm(failpoint.SiteCommit, "error:0.5"); err != nil {
		t.Fatal(err)
	}
	var failures int
	expired := 0
	for now := t0 + 1; now < t0+40 && expired < timed; now++ {
		before := p.Rules()
		n, err := p.SweepExpired(now)
		if err != nil {
			failures++
			// Rollback must be total: nothing removed, accounting intact.
			if n != 0 {
				t.Fatalf("failed sweep reported %d removals", n)
			}
			if got := p.Rules(); got != before {
				t.Fatalf("failed sweep changed rule count %d -> %d", before, got)
			}
		} else {
			expired += n
		}
		if st := p.LifecycleStats(); st.Flows != int64(p.Rules()) {
			t.Fatalf("live-flow accounting diverged: stats=%d rules=%d", st.Flows, p.Rules())
		}
	}
	failpoint.DisarmAll()
	if failures == 0 {
		t.Log("no commit faults triggered this run; rollback path unexercised")
	}

	// With faults cleared, re-armed candidates must drain completely.
	for now := t0 + 41; expired < timed && now < t0+90; now++ {
		n, err := p.SweepExpired(now)
		if err != nil {
			t.Fatalf("post-disarm sweep failed: %v", err)
		}
		expired += n
	}
	stopTraffic.Store(true)
	wg.Wait()

	if expired != timed {
		t.Fatalf("expired %d flows in total, want %d", expired, timed)
	}
	if got := p.Rules(); got != permanent {
		t.Fatalf("%d rules remain, want the %d permanent ones", got, permanent)
	}
	st := p.LifecycleStats()
	if st.ExpiredIdle+st.ExpiredHard != timed {
		t.Fatalf("stats count %d+%d expiries, want %d", st.ExpiredIdle, st.ExpiredHard, timed)
	}
	if st.Removed != uint64(timed) {
		t.Fatalf("stats count %d flow-removed notifications, want %d", st.Removed, timed)
	}
	if st.Flows != permanent {
		t.Fatalf("stats report %d live flows, want %d", st.Flows, permanent)
	}

	// Caches and classification stayed consistent: every permanent flow
	// still matches, every timed flow is gone, and the permanent flows'
	// counters reflect the traffic that ran through the chaos.
	h := new(openflow.Header)
	for i := 0; i < permanent; i++ {
		*h = openflow.Header{IPv4Src: uint32(1000 + i), PktLen: 100}
		if res := p.Execute(h); !res.Matched {
			t.Fatalf("permanent flow src=%d lost after chaos", 1000+i)
		}
	}
	for i := 0; i < timed; i++ {
		*h = openflow.Header{IPv4Src: uint32(i + 1), PktLen: 100}
		if res := p.Execute(h); res.Matched {
			t.Fatalf("expired flow src=%d still matches after chaos", i+1)
		}
	}
	if agg := p.AggregateFlowStats(-1, 0, 0); agg.Flows != permanent || agg.Packets == 0 {
		t.Fatalf("post-chaos aggregate = %+v, want %d counted flows with traffic", agg, permanent)
	}
}
