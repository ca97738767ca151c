package core

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"ofmtl/internal/bitops"
	"ofmtl/internal/cow"
	"ofmtl/internal/openflow"
	"ofmtl/internal/xrand"
)

// TestBackendsMatchReference is the cross-scheme equivalence test: every
// lookup backend that can serve the 5-field ACL table (mbt, tss,
// lineartcam) must classify identically to the brute-force linear-scan
// reference across a randomized insert/remove churn — including priority
// ties, which every scheme must resolve to the earliest installed entry.
// The shape-restricted dir24 runs the same differential over prefix
// tables in TestDIR24MatchesGenericBackends.
func TestBackendsMatchReference(t *testing.T) {
	cow.SealForTest(t)
	rng := xrand.New(5015)
	kinds := kindsSupporting(aclTableConfig().Fields)
	tables := make(map[string]*LookupTable, len(kinds))
	for _, k := range kinds {
		cfg := aclTableConfig()
		cfg.Backend = k
		tbl, err := NewLookupTable(cfg)
		if err != nil {
			t.Fatalf("backend %s: %v", k, err)
		}
		if tbl.Backend() != k {
			t.Fatalf("backend = %s, want %s", tbl.Backend(), k)
		}
		tables[k] = tbl
	}
	ref := &ReferenceClassifier{}
	var live []*openflow.FlowEntry

	for step := 0; step < 1200; step++ {
		if len(live) == 0 || rng.Float64() < 0.6 {
			// Low-cardinality priorities force frequent ties.
			e := randomEntry(rng, 1+rng.Intn(6))
			for _, k := range kinds {
				if err := tables[k].Insert(e); err != nil {
					t.Fatalf("step %d: %s insert: %v", step, k, err)
				}
			}
			ref.Insert(e)
			live = append(live, e)
		} else {
			i := rng.Intn(len(live))
			e := live[i]
			for _, k := range kinds {
				if err := tables[k].Remove(e); err != nil {
					t.Fatalf("step %d: %s remove: %v", step, k, err)
				}
			}
			if !ref.Remove(e) {
				t.Fatalf("step %d: reference lost entry %v", step, e)
			}
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}

		for probe := 0; probe < 4; probe++ {
			h := randomHeader(rng, live)
			want, wok := ref.Classify(h)
			for _, k := range kinds {
				got, ok := tables[k].Classify(h)
				if ok != wok {
					t.Fatalf("step %d: %s matched=%v, reference=%v (header %+v)", step, k, ok, wok, h)
				}
				if !ok {
					continue
				}
				if got.Priority != want.Priority {
					t.Fatalf("step %d: %s priority=%d, reference=%d", step, k, got.Priority, want.Priority)
				}
				if !reflect.DeepEqual(got.Instructions, want.Instructions) {
					t.Fatalf("step %d: %s instructions=%v, reference=%v", step, k, got.Instructions, want.Instructions)
				}
			}
		}
	}
	if len(live) == 0 {
		t.Fatal("degenerate churn: nothing left installed")
	}
}

// TestWildcardShapesMatchReference checks the mbt candidate walk where
// wildcards sit: randomized 3–6-field tables in random field order, every
// dimension left open by some rule, a catch-all, overlapping values that
// share label prefixes and low-cardinality priorities (ties), classified
// against tss and the brute-force reference, live and through a published
// view. Churn removes every rule that leaves one dimension open — its
// wildcard count falls to zero, so the walk stops offering Wildcard
// there — probes, and re-adds them.
func TestWildcardShapesMatchReference(t *testing.T) {
	cow.SealForTest(t)
	pool := []openflow.FieldID{
		openflow.FieldIPv4Src, openflow.FieldIPv4Dst, openflow.FieldSrcPort,
		openflow.FieldDstPort, openflow.FieldIPProto, openflow.FieldVLANID,
	}
	for round := 0; round < 8; round++ {
		rng := xrand.New(uint64(9000 + round))
		fields := slices.Clone(pool)
		rng.Shuffle(len(fields), func(i, j int) { fields[i], fields[j] = fields[j], fields[i] })
		fields = fields[:3+round%4]
		match := func(f openflow.FieldID) openflow.Match {
			switch f {
			case openflow.FieldIPv4Src, openflow.FieldIPv4Dst:
				plen := []int{8, 16, 24, 32}[rng.Intn(4)]
				v := uint64(0x0A010203 + rng.Intn(2)<<16)
				return openflow.Prefix(f, v&bitops.Mask64(plen, 32), plen)
			case openflow.FieldSrcPort, openflow.FieldDstPort:
				lo := uint64([]int{0, 80, 1024}[rng.Intn(3)])
				return openflow.Range(f, lo, lo+uint64(rng.Intn(3))*512)
			case openflow.FieldIPProto:
				return openflow.Exact(f, uint64([]int{6, 17}[rng.Intn(2)]))
			default:
				return openflow.Exact(f, uint64(1+rng.Intn(3)))
			}
		}
		// open[d] leaves field d unconstrained.
		entry := func(open []bool) *openflow.FlowEntry {
			e := &openflow.FlowEntry{Priority: 1 + rng.Intn(4)}
			for d, f := range fields {
				if !open[d] {
					e.Matches = append(e.Matches, match(f))
				}
			}
			e.Instructions = []openflow.Instruction{openflow.WriteActions(openflow.Output(uint32(1 + rng.Intn(64))))}
			return e
		}

		kinds := []string{BackendMBT, BackendTSS}
		tables := make([]*LookupTable, len(kinds))
		for i, k := range kinds {
			tbl, err := NewLookupTable(TableConfig{ID: 0, Fields: fields, Backend: k})
			if err != nil {
				t.Fatal(err)
			}
			tables[i] = tbl
		}
		mbt := tables[0].backend.(*mbtBackend)
		ref := &ReferenceClassifier{}
		var live []*openflow.FlowEntry
		add := func(e *openflow.FlowEntry) {
			for _, l := range live {
				if l.Priority == e.Priority && reflect.DeepEqual(l.Matches, e.Matches) {
					return // an add-replace, which the reference does not model
				}
			}
			for _, tbl := range tables {
				if err := tbl.Insert(e); err != nil {
					t.Fatalf("round %d: insert %v: %v", round, e, err)
				}
			}
			ref.Insert(e)
			live = append(live, e)
		}
		remove := func(i int) {
			e := live[i]
			for _, tbl := range tables {
				if err := tbl.Remove(e); err != nil {
					t.Fatalf("round %d: remove %v: %v", round, e, err)
				}
			}
			if !ref.Remove(e) {
				t.Fatalf("round %d: reference lost %v", round, e)
			}
			live = slices.Delete(live, i, i+1)
		}
		// Probes go to both live tables and to a view of the mbt one
		// published now.
		probe := func(when string) {
			lookups := append(slices.Clone(tables), tables[0].publish())
			names := append(slices.Clone(kinds), BackendMBT+" view")
			for n := 0; n < 64; n++ {
				h := randomHeader(rng, live)
				want, wok := ref.Classify(h)
				for i, tbl := range lookups {
					got, ok := tbl.Classify(h)
					if ok != wok || ok && (got.Priority != want.Priority || !reflect.DeepEqual(got.Instructions, want.Instructions)) {
						t.Fatalf("round %d (fields %v), %s: %s = %+v/%v, reference %+v/%v (header %+v)",
							round, fields, when, names[i], got, ok, want, wok, h)
					}
				}
			}
		}
		isOpen := func(e *openflow.FlowEntry, d int) bool {
			_, ok := e.Match(fields[d])
			return !ok
		}

		add(entry(make([]bool, len(fields)))) // fully constrained
		for d := range fields {
			open := make([]bool, len(fields))
			open[d] = true
			add(entry(open))
		}
		add(entry(slices.Repeat([]bool{true}, len(fields)))) // catch-all
		for step := 0; step < 300; step++ {
			if rng.Float64() < 0.65 || len(live) == 0 {
				open := make([]bool, len(fields))
				for d := range open {
					open[d] = rng.Float64() < 0.3
				}
				add(entry(open))
			} else {
				remove(rng.Intn(len(live)))
			}
			probe(fmt.Sprintf("step %d", step))
			if step%50 != 49 {
				continue
			}
			d := rng.Intn(len(fields))
			var gone []*openflow.FlowEntry
			for i := len(live) - 1; i >= 0; i-- {
				if isOpen(live[i], d) {
					gone = append(gone, live[i])
					remove(i)
				}
			}
			if mbt.wildCount[d] != 0 || mbt.wild&(1<<d) != 0 {
				t.Fatalf("round %d: dimension %d still counts %d wildcards after its last open rule left", round, d, mbt.wildCount[d])
			}
			probe(fmt.Sprintf("step %d, dimension %d closed", step, d))
			for _, e := range gone {
				add(e)
			}
			if len(gone) > 0 && (mbt.wildCount[d] == 0 || mbt.wild&(1<<d) == 0) {
				t.Fatalf("round %d: dimension %d counts no wildcard after %d open rules returned", round, d, len(gone))
			}
			probe(fmt.Sprintf("step %d, dimension %d reopened", step, d))
		}
	}
}

// TestBackendsMatchUnderTx runs the same differential through the
// transactional API — add-replace, non-strict modify/delete and strict
// delete — so the backends agree not only on classification but on how
// flow-mod semantics resolve against them.
func TestBackendsMatchUnderTx(t *testing.T) {
	cow.SealForTest(t)
	rng := xrand.New(777)
	kinds := kindsSupporting(aclTableConfig().Fields)
	pipes := make(map[string]*Pipeline, len(kinds))
	for _, k := range kinds {
		p := NewPipeline()
		cfg := aclTableConfig()
		cfg.Backend = k
		if _, err := p.AddTable(cfg); err != nil {
			t.Fatalf("backend %s: %v", k, err)
		}
		pipes[k] = p
	}

	var pool []*openflow.FlowEntry
	for i := 0; i < 64; i++ {
		pool = append(pool, randomEntry(rng, 1+rng.Intn(6)))
	}
	for round := 0; round < 60; round++ {
		// Build one random command batch and commit it to every pipeline.
		var cmds []FlowCmd
		for n := 0; n < 1+rng.Intn(8); n++ {
			e := pool[rng.Intn(len(pool))]
			switch rng.Intn(4) {
			case 0, 1:
				cmds = append(cmds, FlowCmd{Op: CmdAdd, Table: 0, Entry: *e})
			case 2:
				mod := e.Clone()
				mod.Instructions = []openflow.Instruction{
					openflow.WriteActions(openflow.Output(uint32(1 + rng.Intn(64)))),
				}
				cmds = append(cmds, FlowCmd{Op: CmdModify, Table: 0, Entry: *mod})
			default:
				cmds = append(cmds, FlowCmd{Op: CmdDelete, Table: 0, Entry: openflow.FlowEntry{Matches: e.Matches}})
			}
		}
		var want TxResult
		for i, k := range kinds {
			tx := pipes[k].Begin()
			for _, c := range cmds {
				tx.FlowMod(c)
			}
			res, err := tx.Commit()
			if err != nil {
				t.Fatalf("round %d: %s commit: %v", round, k, err)
			}
			if i == 0 {
				want = res
			} else if res.Counts() != want.Counts() {
				t.Fatalf("round %d: %s tx result %+v, want %+v (backend %s)", round, k, res, want, kinds[0])
			}
		}

		for probe := 0; probe < 16; probe++ {
			h := randomHeader(rng, pool)
			var first Result
			for i, k := range kinds {
				hc := *h
				res := pipes[k].Execute(&hc)
				if i == 0 {
					first = res
				} else if !reflect.DeepEqual(res, first) {
					t.Fatalf("round %d: %s result %+v, %s result %+v", round, k, res, kinds[0], first)
				}
			}
		}
	}
}

// TestBackendCloneIsolationUnderChurn exercises every backend's Clone
// under `go test -race`: reader goroutines classify through published
// snapshots while a writer commits transactions. Any mutable state shared
// between a clone and its source surfaces as a race or a torn lookup.
func TestBackendCloneIsolationUnderChurn(t *testing.T) {
	cow.SealForTest(t)
	for _, kind := range BackendKinds() {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			t.Parallel()
			rng := xrand.New(99)
			p := NewPipeline()
			cfg := backendTableConfig(kind)
			cfg.Backend = kind
			if _, err := p.AddTable(cfg); err != nil {
				t.Fatal(err)
			}
			var pool []*openflow.FlowEntry
			for i := 0; i < 48; i++ {
				pool = append(pool, backendEntry(kind, rng, 1+rng.Intn(6)))
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					rrng := xrand.New(seed)
					for {
						select {
						case <-stop:
							return
						default:
						}
						h := randomHeader(rrng, pool)
						res := p.Execute(h)
						if res.Matched && len(res.TablesVisited) == 0 {
							t.Error("matched result with empty walk")
							return
						}
					}
				}(uint64(r) + 1)
			}
			wrng := xrand.New(4242)
			for i := 0; i < 400; i++ {
				e := pool[wrng.Intn(len(pool))]
				if wrng.Float64() < 0.6 {
					if err := p.Insert(0, e); err != nil {
						t.Errorf("insert: %v", err)
						break
					}
				} else {
					tx := p.Begin()
					tx.FlowMod(FlowCmd{Op: CmdDeleteStrict, Table: 0, Entry: *e})
					if _, err := tx.Commit(); err != nil {
						t.Errorf("delete: %v", err)
						break
					}
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}

// TestRemoveStructuralTwinRejected pins the Remove identity across
// backends: an exact-value match is a different identity from a
// full-width prefix even though the mbt searchers resolve them to the
// same stored value. Removing the twin must fail uniformly — and must
// not desync the data plane from the rule store (the non-strict delete
// afterwards still resolves and applies cleanly).
func TestRemoveStructuralTwinRejected(t *testing.T) {
	for _, kind := range BackendKinds() {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			p := NewPipeline()
			// Per-kind table shape: the shape-restricted dir24 gets its
			// single-LPM-field table, and the test body matches only on
			// FieldIPv4Dst so the twin identities exist under either.
			cfg := backendTableConfig(kind)
			cfg.Backend = kind
			tbl, err := p.AddTable(cfg)
			if err != nil {
				t.Fatal(err)
			}
			instrs := []openflow.Instruction{openflow.WriteActions(openflow.Output(7))}
			installed := &openflow.FlowEntry{
				Priority:     5,
				Matches:      []openflow.Match{openflow.Prefix(openflow.FieldIPv4Dst, 0x0A000001, 32)},
				Instructions: instrs,
			}
			if err := tbl.Insert(installed); err != nil {
				t.Fatal(err)
			}
			twin := &openflow.FlowEntry{
				Priority:     5,
				Matches:      []openflow.Match{openflow.Exact(openflow.FieldIPv4Dst, 0x0A000001)},
				Instructions: instrs,
			}
			if err := tbl.Remove(twin); err == nil {
				t.Fatal("Remove accepted a structural twin with a different canonical identity")
			}
			if tbl.Rules() != 1 || tbl.store.count != 1 {
				t.Fatalf("table desynced: rules=%d store=%d", tbl.Rules(), tbl.store.count)
			}
			// The installed rule is intact: it still classifies and a
			// non-strict delete still resolves against the store and
			// tears it down in the data plane.
			h := &openflow.Header{IPv4Dst: 0x0A000001}
			if _, ok := tbl.Classify(h); !ok {
				t.Fatal("installed rule stopped matching after rejected twin removal")
			}
			if _, err := p.Begin().Delete(0).Commit(); err != nil {
				t.Fatalf("sweep delete after rejected twin removal: %v", err)
			}
			if tbl.Rules() != 0 || tbl.store.count != 0 {
				t.Fatalf("sweep left residue: rules=%d store=%d", tbl.Rules(), tbl.store.count)
			}
		})
	}
}
