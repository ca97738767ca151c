package core

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ofmtl/internal/bitops"
	"ofmtl/internal/cow"
	"ofmtl/internal/openflow"
	"ofmtl/internal/xrand"
)

// TestRouteTableChurn soaks the two-field routing table (exact metadata +
// LPM IPv4) with interleaved inserts and removes, spot-checking
// equivalence against the reference classifier throughout — the
// incremental-update correctness the paper's update analysis presumes.
func TestRouteTableChurn(t *testing.T) {
	cow.SealForTest(t)
	rng := xrand.New(31415)
	tbl, err := NewLookupTable(TableConfig{
		ID:     0,
		Fields: []openflow.FieldID{openflow.FieldMetadata, openflow.FieldIPv4Dst},
	})
	if err != nil {
		t.Fatal(err)
	}
	var ref ReferenceClassifier

	type ruleKey struct {
		port uint64
		v    uint64
		plen int
	}
	live := map[ruleKey]*openflow.FlowEntry{}
	var liveKeys []ruleKey

	makeEntry := func(k ruleKey) *openflow.FlowEntry {
		return &openflow.FlowEntry{
			Priority: 1 + k.plen,
			Matches: []openflow.Match{
				openflow.Exact(openflow.FieldMetadata, k.port),
				openflow.Prefix(openflow.FieldIPv4Dst, k.v, k.plen),
			},
			Instructions: []openflow.Instruction{
				openflow.WriteActions(openflow.Output(uint32(k.port*100 + uint64(k.plen)))),
			},
		}
	}

	const steps = 1200
	for step := 0; step < steps; step++ {
		if rng.Float64() < 0.6 || len(liveKeys) == 0 {
			plen := rng.Intn(33)
			k := ruleKey{
				port: uint64(rng.Intn(8)),
				v:    uint64(rng.Uint32()) & bitops.Mask64(plen, 32),
				plen: plen,
			}
			if _, dup := live[k]; dup {
				continue
			}
			e := makeEntry(k)
			if err := tbl.Insert(e); err != nil {
				t.Fatalf("step %d insert: %v", step, err)
			}
			ref.Insert(e)
			live[k] = e
			liveKeys = append(liveKeys, k)
		} else {
			idx := rng.Intn(len(liveKeys))
			k := liveKeys[idx]
			e := live[k]
			if err := tbl.Remove(e); err != nil {
				t.Fatalf("step %d remove: %v", step, err)
			}
			if !ref.Remove(e) {
				t.Fatalf("step %d: reference remove failed", step)
			}
			delete(live, k)
			liveKeys[idx] = liveKeys[len(liveKeys)-1]
			liveKeys = liveKeys[:len(liveKeys)-1]
		}

		if step%60 != 0 {
			continue
		}
		for probe := 0; probe < 40; probe++ {
			h := &openflow.Header{
				Metadata: uint64(rng.Intn(8)),
				IPv4Dst:  rng.Uint32(),
			}
			if len(liveKeys) > 0 && rng.Float64() < 0.6 {
				k := liveKeys[rng.Intn(len(liveKeys))]
				mask := uint32(bitops.Mask64(k.plen, 32))
				h.Metadata = k.port
				h.IPv4Dst = (uint32(k.v) & mask) | (rng.Uint32() &^ mask)
			}
			got, gotOK := tbl.Classify(h)
			want, wantOK := ref.Classify(h)
			if gotOK != wantOK {
				t.Fatalf("step %d: churn divergence (table=%v ref=%v)", step, gotOK, wantOK)
			}
			if gotOK && got.Priority != want.Priority {
				t.Fatalf("step %d: priority %d != %d", step, got.Priority, want.Priority)
			}
		}
	}

	// Drain completely; every structure must empty.
	for _, k := range liveKeys {
		if err := tbl.Remove(live[k]); err != nil {
			t.Fatalf("drain remove: %v", err)
		}
	}
	b := mbtOf(t, tbl)
	if tbl.Rules() != 0 || b.combos.Keys() != 0 || b.actions.Len() != 0 || b.wild != 0 || slices.ContainsFunc(b.wildCount, func(n int) bool { return n != 0 }) {
		t.Errorf("residue after drain: rules=%d combos=%d actions=%d wildCount=%v wild=%b",
			tbl.Rules(), b.combos.Keys(), b.actions.Len(), b.wildCount, b.wild)
	}
}

// TestConcurrentSnapshotChurn stresses the RCU snapshot engine under
// `go test -race`: reader goroutines run Execute and ExecuteBatch while
// writer goroutines insert and remove flow entries through the pipeline.
//
// The snapshot-isolation invariant under test: a reader must only ever
// observe states that existed between complete updates. For the toggled
// flow entry that means every probe either misses cleanly (sent to
// controller) or matches with exactly the installed priority and output —
// a half-applied insert (field searcher updated, combination store not)
// would surface as any other outcome. Within one ExecuteBatch the whole
// batch must observe one snapshot, so identical probes placed at both
// ends of the batch must agree even while the entry is being toggled.
func TestConcurrentSnapshotChurn(t *testing.T) {
	cow.SealForTest(t)
	p := NewPipeline()
	if _, err := p.AddTable(TableConfig{
		ID:     0,
		Fields: []openflow.FieldID{openflow.FieldMetadata, openflow.FieldIPv4Dst},
	}); err != nil {
		t.Fatal(err)
	}

	// A stable background population that every probe can fall back to.
	stable := &openflow.FlowEntry{
		Priority: 1,
		Matches: []openflow.Match{
			openflow.Exact(openflow.FieldMetadata, 5),
			openflow.Prefix(openflow.FieldIPv4Dst, 0x0A000000, 8),
		},
		Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(7))},
	}
	if err := p.Insert(0, stable); err != nil {
		t.Fatal(err)
	}

	// The toggled entry: strictly higher priority, same cover.
	const togglePort = 42
	toggled := &openflow.FlowEntry{
		Priority: 9,
		Matches: []openflow.Match{
			openflow.Exact(openflow.FieldMetadata, 5),
			openflow.Prefix(openflow.FieldIPv4Dst, 0x0A0A0000, 16),
		},
		Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(togglePort))},
	}

	probe := func() *openflow.Header {
		return &openflow.Header{Metadata: 5, IPv4Dst: 0x0A0A0101}
	}
	// checkResult enforces the isolation invariant: the probe matches the
	// toggled entry exactly or falls back to the stable entry exactly.
	checkResult := func(res Result) error {
		if !res.Matched || len(res.Outputs) != 1 {
			return errTorn("unmatched probe", res)
		}
		if out := res.Outputs[0]; out != togglePort && out != 7 {
			return errTorn("unexpected output", res)
		}
		return nil
	}

	var stop atomic.Bool
	errs := make(chan error, 16)
	var readers, writers sync.WaitGroup

	// Writer 1: toggle the high-priority entry. The pause between ops
	// keeps the update rate realistic — updates are control-plane events,
	// orders of magnitude rarer than lookups — and bounds how many
	// snapshot re-clones the readers pay for.
	writers.Add(1)
	go func() {
		defer writers.Done()
		for !stop.Load() {
			if err := p.Insert(0, toggled); err != nil {
				errs <- err
				return
			}
			time.Sleep(100 * time.Microsecond)
			if err := p.Remove(0, toggled); err != nil {
				errs <- err
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	// Writer 2: churn a disjoint background population (different
	// metadata space) to force snapshot rebuilds with real structure.
	writers.Add(1)
	go func() {
		defer writers.Done()
		rng := xrand.New(777)
		var installed []*openflow.FlowEntry
		for !stop.Load() {
			if len(installed) < 64 && (len(installed) == 0 || rng.Float64() < 0.6) {
				plen := 8 + rng.Intn(25)
				e := &openflow.FlowEntry{
					Priority: 1 + plen,
					Matches: []openflow.Match{
						openflow.Exact(openflow.FieldMetadata, uint64(100+rng.Intn(4))),
						openflow.Prefix(openflow.FieldIPv4Dst, uint64(rng.Uint32())&bitops.Mask64(plen, 32), plen),
					},
					Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(uint32(rng.Intn(16))))},
				}
				if err := p.Insert(0, e); err != nil {
					errs <- err
					return
				}
				installed = append(installed, e)
			} else {
				i := rng.Intn(len(installed))
				if err := p.Remove(0, installed[i]); err != nil {
					errs <- err
					return
				}
				installed[i] = installed[len(installed)-1]
				installed = installed[:len(installed)-1]
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	// Readers: single-packet path.
	const iters = 1000
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < iters; i++ {
				if err := checkResult(p.Execute(probe())); err != nil {
					errs <- err
					return
				}
			}
		}()
	}

	// Readers: batch path, with the same probe at both ends of every
	// batch — one snapshot per batch means they must agree.
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < iters/10; i++ {
				hs := make([]*openflow.Header, 40)
				for j := range hs {
					hs[j] = probe()
				}
				results := p.ExecuteBatch(hs)
				for _, res := range results {
					if err := checkResult(res); err != nil {
						errs <- err
						return
					}
				}
				first, last := results[0], results[len(results)-1]
				if first.Outputs[0] != last.Outputs[0] {
					errs <- errTorn("batch not snapshot-isolated", last)
					return
				}
			}
		}()
	}

	// Readers exit after a fixed iteration count, bounding the test's
	// runtime; then the writers are told to stop. Every goroutine sends
	// at most one error before returning, so the buffered channel never
	// blocks.
	readers.Wait()
	stop.Store(true)
	writers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The churned pipeline must still agree with a fresh snapshot.
	if res := p.Execute(probe()); !res.Matched {
		t.Errorf("stable entry lost after churn: %+v", res)
	}
}

type tornStateError struct {
	msg string
	res Result
}

func (e tornStateError) Error() string { return e.msg }

func errTorn(msg string, res Result) error {
	return tornStateError{msg: msg, res: res}
}

// TestDirectTableMutationVisible verifies the generation-counter path:
// rules inserted directly through a *LookupTable handle (the builders'
// single-threaded pattern) are picked up by the next Execute without an
// explicit Refresh.
func TestDirectTableMutationVisible(t *testing.T) {
	p := NewPipeline()
	tbl, err := p.AddTable(TableConfig{
		ID:     0,
		Fields: []openflow.FieldID{openflow.FieldVLANID},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := &openflow.Header{VLANID: 9}
	if res := p.Execute(h); res.Matched {
		t.Fatalf("empty pipeline matched: %+v", res)
	}
	e := &openflow.FlowEntry{
		Priority:     1,
		Matches:      []openflow.Match{openflow.Exact(openflow.FieldVLANID, 9)},
		Instructions: []openflow.Instruction{openflow.WriteActions(openflow.Output(3))},
	}
	if err := tbl.Insert(e); err != nil {
		t.Fatal(err)
	}
	if res := p.Execute(&openflow.Header{VLANID: 9}); !res.Matched || len(res.Outputs) != 1 || res.Outputs[0] != 3 {
		t.Errorf("direct insert not visible through snapshot: %+v", res)
	}
	if err := tbl.Remove(e); err != nil {
		t.Fatal(err)
	}
	if res := p.Execute(&openflow.Header{VLANID: 9}); res.Matched {
		t.Errorf("direct remove not visible through snapshot: %+v", res)
	}
}
