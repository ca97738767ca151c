package core

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ofmtl/internal/cow"
	"ofmtl/internal/failpoint"
	"ofmtl/internal/openflow"
	"ofmtl/internal/xrand"
)

// Tests of the published-view machinery as the pipeline uses it: what a
// commit costs, and what concurrent readers may observe.

// lpmRule is the single-field LPM rule the view tests install: priority =
// prefix length, one output port.
func lpmRule(addr uint32, plen int, port uint32) *openflow.FlowEntry {
	return &openflow.FlowEntry{
		Priority:     plen,
		Matches:      []openflow.Match{openflow.Prefix(openflow.FieldIPv4Dst, uint64(addr), plen)},
		Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(port))},
	}
}

// lpmPipeline builds a one-table mbt pipeline holding n /24 rules
// 10.x.y.0/24 (n ≤ 65536) or, beyond that, /24s counting up from
// 10.0.0.0 — installed in commits of 4096 commands.
func lpmPipeline(t testing.TB, n int) *Pipeline {
	t.Helper()
	p := NewPipeline()
	if _, err := p.AddTable(TableConfig{ID: 0, Fields: []openflow.FieldID{openflow.FieldIPv4Dst}, Backend: BackendMBT}); err != nil {
		t.Fatal(err)
	}
	for base := 0; base < n; base += 4096 {
		tx := p.Begin()
		for i := base; i < min(base+4096, n); i++ {
			tx.Add(0, lpmRule(0x0A000000+uint32(i)<<8, 24, uint32(i%251)+1))
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	p.Refresh()
	return p
}

// maxCopiedPerCmd bounds the bytes a published commit copies per command
// (TestCommitCostIndependentOfTableSize). A delete or an add of one LPM
// rule writes its slot and control byte in the backend's combination
// store and in the field's partition-combination store (a small page
// each) and, when the rule is the last user of a partition value, one
// 20 KiB trie page per level walked. The re-add finds the pages the
// delete made private, so a delete/re-add pair costs what one of them
// does. The publish clones the dirtied arrays' directories, 8 B per
// page: the one term that grows with the table, ≈ 6 KiB per command at
// 128 k rules.
const maxCopiedPerCmd = 16 << 10

// TestCommitCostIndependentOfTableSize pins the commit cost model in
// tier-1: the same 16-command batch — strict-delete eight rules, re-add
// them — committed and published on a 2 k-rule and on a 128 k-rule table
// allocates the same (< 200 allocations per command, the two sizes within
// 2× of each other) and copies at most maxCopiedPerCmd bytes per command
// on either (cow.Copied: pages copied on write, directories cloned by the
// publish, flat clones). Before views, the publish deep-copied the table:
// 58 k allocations per command at 256 k rules. Before control bytes were
// paged, the publish cloned each dirtied combination store's control
// bytes whole and a slot write copied a 40 KiB page: 27.9 KiB per command
// at 2 k rules, 107 KiB at 128 k (4.6 KiB and 12 KiB since).
func TestCommitCostIndependentOfTableSize(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the cost model is measured without -race")
	}
	measure := func(rules int) (allocsPerCmd, copiedPerCmd float64) {
		p := lpmPipeline(t, rules)
		// Eight rules spread over the table.
		var batch []*openflow.FlowEntry
		for i := 0; i < 8; i++ {
			k := i * (rules / 8)
			batch = append(batch, lpmRule(0x0A000000+uint32(k)<<8, 24, uint32(k%251)+1))
		}
		commit := func() {
			tx := p.Begin()
			for _, e := range batch {
				tx.DeleteStrict(0, e.Priority, e.Matches...)
			}
			for _, e := range batch {
				tx.Add(0, e)
			}
			res, err := tx.Commit()
			if err != nil || res.Deleted != 8 || res.Added != 8 {
				t.Fatalf("%d rules: commit: %+v, %v", rules, res, err)
			}
			p.Refresh() // publish, as the first lookup after the commit would
		}
		commit()
		const runs = 20
		before := cow.Copied()
		allocs := testing.AllocsPerRun(runs, commit)
		// AllocsPerRun runs the function once more to warm up.
		copied := float64(cow.Copied()-before) / (runs + 1)
		return allocs / 16, copied / 16
	}
	smallAllocs, smallCopied := measure(2 << 10)
	largeAllocs, largeCopied := measure(128 << 10)
	t.Logf("allocations per command: %.1f at 2 k rules, %.1f at 128 k; bytes copied per command: %.0f and %.0f",
		smallAllocs, largeAllocs, smallCopied, largeCopied)
	for _, a := range []float64{smallAllocs, largeAllocs} {
		if a >= 200 {
			t.Errorf("%.1f allocations per command, want < 200", a)
		}
	}
	if largeAllocs > 2*smallAllocs || smallAllocs > 2*largeAllocs {
		t.Errorf("allocations per command differ by more than 2× between sizes: %.1f and %.1f", smallAllocs, largeAllocs)
	}
	for _, c := range []float64{smallCopied, largeCopied} {
		if c == 0 || c > maxCopiedPerCmd {
			t.Errorf("%.0f bytes copied per command, want 1..%d", c, maxCopiedPerCmd)
		}
	}
}

// TestSnapshotLinearizability checks what PR 1 promised and page sharing
// stresses: readers run Execute and ExecuteBatchInto on a 64 k-rule mbt
// table while a writer commits a known stream of 16-command batches, and
// every observed result must be what a brute-force priority scan returns
// on the rule set as some commit the read could have overlapped left it
// — for a batch, one such commit for all its packets. A snapshot held
// across all the commits must keep answering for the rule set it was
// published with, and no published page may be written (the seals).
func TestSnapshotLinearizability(t *testing.T) {
	cow.SealForTest(t)
	const (
		baseRules = 64 << 10
		hosts     = 64 // /32 rules toggled by the stream
		nets      = 64 // /24 base rules toggled by the stream
		commits   = 120
		readers   = 3
	)
	p := lpmPipeline(t, baseRules)
	p.SetCacheSize(4096)
	p.SetMegaflowSize(1024)

	// The toggled rules: /32 hosts inside /24s that stay, and /24 base
	// rules of their own. Probes address every toggled rule.
	rng := xrand.New(2015)
	type toggled struct {
		e       *openflow.FlowEntry
		present bool
	}
	var pool []toggled
	var probes []openflow.Header
	taken := map[uint32]bool{}
	freshNet := func(parity uint32) uint32 {
		for {
			if net := uint32(rng.Intn(baseRules/2))*2 + parity; !taken[net] {
				taken[net] = true
				return net
			}
		}
	}
	// Hosts come in pairs 10.a.y.7 and 10.b.y.9: two values of the lower
	// 16-bit partition in one level-3 trie node, so that adding one while
	// the other is installed writes a node — and a page — that exists.
	for i := 0; i < hosts; i += 2 {
		first := freshNet(0) // even /24s hold the hosts
		second := first
		for second == first || taken[second] {
			second = uint32(rng.Intn(256))<<8 | first&0xFF
		}
		taken[second] = true
		for k, addr := range []uint32{0x0A000000 + first<<8 + 7, 0x0A000000 + second<<8 + 9} {
			pool = append(pool, toggled{e: lpmRule(addr, 32, 1000+uint32(i+k))})
			probes = append(probes, openflow.Header{IPv4Dst: addr})
		}
	}
	for i := 0; i < nets; i++ {
		net := freshNet(1) // odd /24s are toggled themselves
		pool = append(pool, toggled{e: lpmRule(0x0A000000+net<<8, 24, net%251+1), present: true})
		probes = append(probes, openflow.Header{IPv4Dst: 0x0A000000 + net<<8 + 9})
	}

	// Each probe's candidates, found by one scan: the rules that match it
	// among the base rules that stay and among the toggled ones. The
	// expected verdict at a state is the ReferenceClassifier's over the
	// candidates present in it — the priority scan of the whole rule set,
	// minus rules that cannot match.
	stays := make([][]*openflow.FlowEntry, len(probes))
	toggles := make([][]int, len(probes))
	for i := 0; i < baseRules; i++ {
		if taken[uint32(i)] && i%2 == 1 {
			continue // a toggled /24: in pool
		}
		e := lpmRule(0x0A000000+uint32(i)<<8, 24, uint32(i%251)+1)
		for j := range probes {
			if e.MatchesHeader(&probes[j]) {
				stays[j] = append(stays[j], e)
			}
		}
	}
	for i, tg := range pool {
		for j := range probes {
			if tg.e.MatchesHeader(&probes[j]) {
				toggles[j] = append(toggles[j], i)
			}
		}
	}
	states := func() []uint32 {
		out := make([]uint32, len(probes))
		for j := range probes {
			var ref ReferenceClassifier
			for _, e := range stays[j] {
				ref.Insert(e)
			}
			for _, i := range toggles[j] {
				if pool[i].present {
					ref.Insert(pool[i].e)
				}
			}
			if e, ok := ref.Classify(&probes[j]); ok {
				out[j] = e.Instructions[0].Actions[0].Port
			}
		}
		return out
	}

	// The batch stream and the expected verdicts after every commit.
	expected := [][]uint32{states()}
	var batches [][]FlowCmd
	for k := 0; k < commits; k++ {
		var cmds []FlowCmd
		for _, idx := range rng.Perm(len(pool))[:16] {
			tg := &pool[idx]
			if tg.present {
				cmds = append(cmds, FlowCmd{Op: CmdDeleteStrict, Table: 0, Entry: openflow.FlowEntry{Priority: tg.e.Priority, Matches: tg.e.Matches}})
			} else {
				cmds = append(cmds, FlowCmd{Op: CmdAdd, Table: 0, Entry: *tg.e})
			}
			tg.present = !tg.present
		}
		batches = append(batches, cmds)
		expected = append(expected, states())
	}
	got := func(r *Result) uint32 {
		if len(r.Outputs) == 0 {
			return 0
		}
		return r.Outputs[0]
	}

	// The long-held snapshot and its answers.
	held := p.loadSnapshot()
	heldAnswers := func() []uint32 {
		var w walker
		w.size(1)
		out := make([]uint32, len(probes))
		for j := range probes {
			h := probes[j]
			w.begin(0, &h, held, false)
			held.walk(&w, []int32{0})
			out[j] = got(&w.sc[0].res)
		}
		return out
	}
	if a := heldAnswers(); !slices.Equal(a, expected[0]) {
		t.Fatalf("initial snapshot disagrees with the reference scan:\n got %v\nwant %v", a, expected[0])
	}

	// started/done bracket each commit: a read that saw done = lo before
	// it began and started = hi after it ended ran against the state
	// some commit in [lo, hi] left.
	var started, done atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rrng := xrand.New(seed)
			hs := make([]openflow.Header, 32)
			ptrs := make([]*openflow.Header, len(hs))
			idx := make([]int, len(hs))
			var res []Result
			for done.Load() < commits {
				if rrng.Intn(2) == 0 {
					j := rrng.Intn(len(probes))
					h := probes[j]
					lo := done.Load()
					r := p.Execute(&h)
					hi := started.Load()
					ok := false
					for k := lo; k <= hi && !ok; k++ {
						ok = expected[k][j] == got(&r)
					}
					if !ok {
						t.Errorf("Execute, probe %d, commits %d..%d: output %d matches no state", j, lo, hi, got(&r))
						return
					}
					continue
				}
				for i := range hs {
					idx[i] = rrng.Intn(len(probes))
					hs[i] = probes[idx[i]]
					ptrs[i] = &hs[i]
				}
				lo := done.Load()
				res = p.ExecuteBatchInto(ptrs, res)
				hi := started.Load()
				ok := false
				for k := lo; k <= hi && !ok; k++ {
					ok = true
					for i := range res {
						ok = ok && expected[k][idx[i]] == got(&res[i])
					}
				}
				if !ok {
					t.Errorf("ExecuteBatchInto, commits %d..%d: the batch matches no single state", lo, hi)
					return
				}
			}
		}(uint64(r) + 1)
	}
	for k, cmds := range batches {
		started.Store(int64(k + 1))
		tx := p.Begin()
		for _, c := range cmds {
			tx.FlowMod(c)
		}
		if _, err := tx.Commit(); err != nil {
			t.Errorf("commit %d: %v", k+1, err)
			break
		}
		done.Store(int64(k + 1))
	}
	done.Store(commits) // releases the readers if a commit failed
	wg.Wait()

	if a := heldAnswers(); !slices.Equal(a, expected[0]) {
		t.Errorf("a snapshot held across %d commits changed its answers:\n got %v\nwant %v", commits, a, expected[0])
	}
	// And the live pipeline ends where the stream does.
	for j := range probes {
		h := probes[j]
		if r := p.Execute(&h); got(&r) != expected[commits][j] {
			t.Errorf("after the stream, probe %d: output %d, want %d", j, got(&r), expected[commits][j])
		}
	}
}

// TestReadersNeverWaitForCommit holds a commit at the commit failpoint
// (build with -tags failpoint) after it has applied its commands, and
// reads on another goroutine: Execute and ExecuteBatchInto must answer
// from the snapshot published before the commit — the pre-commit verdict
// — well inside the hold, and give the post-commit verdict once Commit
// returns. Readers take no lock, so none waits behind a writer.
func TestReadersNeverWaitForCommit(t *testing.T) {
	if !failpoint.Armed {
		t.Skip("fault injection is compiled in only with -tags failpoint")
	}
	const hold = time.Second
	for _, tiers := range []bool{false, true} {
		name := "tiers-off"
		if tiers {
			name = "tiers-on"
		}
		t.Run(name, func(t *testing.T) {
			defer failpoint.DisarmAll()
			p := lpmPipeline(t, 256)
			if tiers {
				p.SetCacheSize(1024)
				p.SetMegaflowSize(1024)
			}
			probe := openflow.Header{IPv4Dst: 0x0A000105} // 10.0.1.5: the /24 says port 2
			batch := make([]openflow.Header, 64)
			hs := make([]*openflow.Header, len(batch))
			var res []Result
			port := func(r *Result) uint32 {
				if len(r.Outputs) == 0 {
					return 0
				}
				return r.Outputs[0]
			}
			check := func(when string, want uint32) {
				h := probe
				if r := p.Execute(&h); port(&r) != want {
					t.Errorf("%s: Execute forwards to port %d, want %d", when, port(&r), want)
				}
				for i := range batch {
					batch[i], hs[i] = probe, &batch[i]
				}
				res = p.ExecuteBatchInto(hs, res)
				for i := range res {
					if got := port(&res[i]); got != want {
						t.Errorf("%s: ExecuteBatchInto packet %d forwards to port %d, want %d", when, i, got, want)
						break
					}
				}
			}
			check("before the commit", 2) // and publishes the snapshot

			if err := failpoint.Arm(failpoint.SiteCommit, "delay:"+hold.String()); err != nil {
				t.Fatal(err)
			}
			committed := make(chan error, 1)
			go func() {
				tx := p.Begin().Add(0, lpmRule(0x0A000100, 28, 4242))
				_, err := tx.Commit()
				committed <- err
			}()
			for failpoint.Hits(failpoint.SiteCommit) == 0 {
				runtime.Gosched()
			}
			start := time.Now()
			check("while the commit is held", 2)
			if waited := time.Since(start); waited > hold/4 {
				t.Errorf("reads took %v while a commit was held for %v", waited, hold)
			}
			select {
			case <-committed:
				t.Fatal("the reads returned only after the commit did")
			default:
			}
			if err := <-committed; err != nil {
				t.Fatal(err)
			}
			check("after the commit", 4242)
		})
	}
}
