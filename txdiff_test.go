package ofmtl_test

import (
	"reflect"
	"sort"
	"testing"

	"ofmtl/internal/bitops"
	"ofmtl/internal/core"
	"ofmtl/internal/cow"
	"ofmtl/internal/filterset"
	"ofmtl/internal/openflow"
	"ofmtl/internal/xrand"
)

// TestDifferentialTxVsSingleOps drives a randomized sequence of
// Add/Modify/Delete/DeleteStrict commands through the transactional API
// and, in parallel, resolves the SAME sequence with an independent
// linear-scan reference (brute-force OpenFlow semantics over an ordered
// rule list) into primitive single-entry Insert/Remove operations applied
// to a second pipeline. After every batch the two pipelines must agree —
// and at the end their MemoryReport output must be byte-identical, so the
// transactional resolution provably performs exactly the primitive
// operations the linear semantics dictate, in the same order.
func TestDifferentialTxVsSingleOps(t *testing.T) {
	cow.SealForTest(t)
	for _, seed := range []uint64{3, 17, 99} {
		t.Run("", func(t *testing.T) {
			runTxDifferential(t, seed)
		})
	}
}

func aclTableConfig() core.TableConfig {
	return core.TableConfig{
		ID: 0,
		Fields: []openflow.FieldID{
			openflow.FieldIPv4Src,
			openflow.FieldIPv4Dst,
			openflow.FieldSrcPort,
			openflow.FieldDstPort,
			openflow.FieldIPProto,
		},
	}
}

func runTxDifferential(t *testing.T, seed uint64) {
	t.Helper()
	pool := filterset.GenerateACL("txdiff", 120, seed).FlowEntries()
	for i := range pool {
		pool[i].Cookie = uint64(i % 8)
	}

	pA := core.NewPipeline()
	if _, err := pA.AddTable(aclTableConfig()); err != nil {
		t.Fatal(err)
	}
	pB := core.NewPipeline()
	tblB, err := pB.AddTable(aclTableConfig())
	if err != nil {
		t.Fatal(err)
	}

	var ref refStore
	rng := xrand.New(seed * 7919)

	// Probe headers biased toward the pool's covers.
	var probes []openflow.Header
	for i := 0; i < 256; i++ {
		e := &pool[rng.Intn(len(pool))]
		probes = append(probes, headerInCover(e, rng))
	}

	const rounds = 40
	for round := 0; round < rounds; round++ {
		n := 1 + rng.Intn(24)
		tx := pA.Begin()
		var cmds []core.FlowCmd
		for i := 0; i < n; i++ {
			cmds = append(cmds, randomCmd(rng, pool, &ref))
		}
		for i := range cmds {
			tx.FlowMod(cmds[i])
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatalf("seed %d round %d: tx commit: %v", seed, round, err)
		}
		// Resolve the same commands against the linear reference into
		// primitive ops, applied to pipeline B one entry at a time.
		for i := range cmds {
			for _, op := range ref.resolve(&cmds[i]) {
				if op.insert {
					err = tblB.Insert(&op.entry)
				} else {
					err = tblB.Remove(&op.entry)
				}
				if err != nil {
					t.Fatalf("seed %d round %d: primitive replay: %v", seed, round, err)
				}
			}
		}

		if pA.Rules() != pB.Rules() || pA.Rules() != len(ref.rules) {
			t.Fatalf("seed %d round %d: rule counts diverged: tx=%d primitives=%d ref=%d",
				seed, round, pA.Rules(), pB.Rules(), len(ref.rules))
		}
		// Classification must agree with the linear scan on every probe.
		for pi := range probes {
			h := probes[pi]
			want, wantOK := ref.classify(&h)
			gotA := pA.Execute(&h)
			if gotA.Matched != wantOK {
				t.Fatalf("seed %d round %d probe %d: tx pipeline matched=%v, linear=%v",
					seed, round, pi, gotA.Matched, wantOK)
			}
			hB := probes[pi]
			mB, okB := tblB.Classify(&hB)
			if okB != wantOK {
				t.Fatalf("seed %d round %d probe %d: primitive pipeline matched=%v, linear=%v",
					seed, round, pi, okB, wantOK)
			}
			if wantOK {
				if mB.Priority != want.Priority || !reflect.DeepEqual(mB.Instructions, want.Instructions) {
					t.Fatalf("seed %d round %d probe %d: primitive winner diverged", seed, round, pi)
				}
			}
		}
	}

	// The decisive check: the two pipelines' memory reports — depth and
	// width of every modelled component, shaped by the exact primitive
	// operation history — must be byte-identical.
	repA := pA.MemoryReport().String()
	repB := pB.MemoryReport().String()
	if repA != repB {
		t.Fatalf("seed %d: memory reports diverged:\n--- tx\n%s\n--- primitives\n%s", seed, repA, repB)
	}
}

// randomCmd picks the next command, biased toward keeping a healthy live
// population. It consults the reference only for sizing, not semantics.
func randomCmd(rng *xrand.Source, pool []openflow.FlowEntry, ref *refStore) core.FlowCmd {
	r := rng.Float64()
	switch {
	case len(ref.rules) < 10 || r < 0.45:
		e := pool[rng.Intn(len(pool))]
		if rng.Float64() < 0.3 {
			// Re-add with different instructions: exercises replace.
			e.Instructions = []openflow.Instruction{
				openflow.WriteActions(openflow.Output(uint32(1 + rng.Intn(64)))),
			}
		}
		return core.FlowCmd{Op: core.CmdAdd, Table: 0, Entry: e}
	case r < 0.60:
		// Modify: select by a live rule's matches, sometimes widened by
		// dropping constraints (selecting every narrower rule).
		src := ref.rules[rng.Intn(len(ref.rules))].entry
		sel := widenMatches(rng, src.Matches)
		return core.FlowCmd{Op: core.CmdModify, Table: 0, Entry: openflow.FlowEntry{
			Matches: sel,
			Instructions: []openflow.Instruction{
				openflow.WriteActions(openflow.Output(uint32(100 + rng.Intn(64)))),
			},
		}}
	case r < 0.80:
		// Non-strict delete, sometimes cookie-filtered.
		src := ref.rules[rng.Intn(len(ref.rules))].entry
		cmd := core.FlowCmd{Op: core.CmdDelete, Table: 0, Entry: openflow.FlowEntry{
			Matches: widenMatches(rng, src.Matches),
		}}
		if rng.Float64() < 0.4 {
			cmd.Entry.Cookie = uint64(rng.Intn(8))
			cmd.CookieMask = 0x7
			cmd.Entry.Matches = nil // pure cookie sweep
		}
		return cmd
	default:
		src := ref.rules[rng.Intn(len(ref.rules))].entry
		return core.FlowCmd{Op: core.CmdDeleteStrict, Table: 0, Entry: openflow.FlowEntry{
			Priority: src.Priority,
			Matches:  src.Matches,
		}}
	}
}

// widenMatches copies the matches, dropping each with probability 0.3 —
// a wider selector subsumes more rules.
func widenMatches(rng *xrand.Source, ms []openflow.Match) []openflow.Match {
	var out []openflow.Match
	for _, m := range ms {
		if rng.Float64() < 0.3 {
			continue
		}
		out = append(out, m)
	}
	return out
}

// headerInCover synthesises a header admitted by the entry.
func headerInCover(e *openflow.FlowEntry, rng *xrand.Source) openflow.Header {
	h := openflow.Header{
		IPv4Src: rng.Uint32(),
		IPv4Dst: rng.Uint32(),
		SrcPort: uint16(rng.Intn(65536)),
		DstPort: uint16(rng.Intn(65536)),
		IPProto: uint8(rng.Intn(256)),
	}
	for _, m := range e.Matches {
		switch m.Kind {
		case openflow.MatchExact:
			h.Set(m.Field, m.Value)
		case openflow.MatchPrefix:
			w := m.Field.Bits()
			mask := bitops.Mask64(m.PrefixLen, w)
			v := (m.Value.Lo & mask) | (rng.Uint64() & bitops.LowMask64(w) &^ mask)
			h.Set(m.Field, bitops.U128From64(v))
		case openflow.MatchRange:
			v := m.Lo + rng.Uint64()%(m.Hi-m.Lo+1)
			h.Set(m.Field, bitops.U128From64(v))
		}
	}
	return h
}

// --- Independent linear-scan reference -------------------------------
//
// The reference re-implements the OpenFlow flow-mod semantics over an
// ordered rule list with brute-force scans: no shared code with the
// engine's rule store beyond the openflow primitives it is checked
// against.

type refRule struct {
	entry openflow.FlowEntry // canonical: non-Any matches sorted, prefixes masked
}

type refStore struct {
	rules []refRule // installation (seq) order
}

type primOp struct {
	insert bool
	entry  openflow.FlowEntry
}

// canonRef canonicalises an entry the same way the control plane stores
// rules: wildcards dropped, matches sorted by field, prefix host bits
// masked, instruction slices deep-copied.
func canonRef(e *openflow.FlowEntry) openflow.FlowEntry {
	cp := *e
	cp.Matches = nil
	for _, m := range e.Matches {
		if m.Kind == openflow.MatchAny {
			continue
		}
		if m.Kind == openflow.MatchPrefix {
			m.Value = m.Value.And(bitops.Mask128(m.PrefixLen, m.Field.Bits()))
		}
		cp.Matches = append(cp.Matches, m)
	}
	sort.Slice(cp.Matches, func(i, j int) bool { return cp.Matches[i].Field < cp.Matches[j].Field })
	cp.Instructions = append([]openflow.Instruction(nil), e.Instructions...)
	for i := range cp.Instructions {
		if len(cp.Instructions[i].Actions) > 0 {
			cp.Instructions[i].Actions = append([]openflow.Action(nil), cp.Instructions[i].Actions...)
		} else {
			cp.Instructions[i].Actions = nil
		}
	}
	return cp
}

// refStrictEqual: same priority and identical canonical match sets.
func refStrictEqual(a, b *openflow.FlowEntry) bool {
	if a.Priority != b.Priority || len(a.Matches) != len(b.Matches) {
		return false
	}
	for i := range a.Matches {
		if a.Matches[i] != b.Matches[i] {
			return false
		}
	}
	return true
}

// refSubsumes: does selector match m admit every value rule match o
// admits? Independent interval-based re-implementation (the ACL fields
// are all at most 64 bits wide).
func refSubsumes(m, o openflow.Match) bool {
	lo1, hi1 := refBounds(m)
	lo2, hi2 := refBounds(o)
	return lo1 <= lo2 && hi2 <= hi1
}

func refBounds(m openflow.Match) (uint64, uint64) {
	w := m.Field.Bits()
	full := bitops.LowMask64(w)
	switch m.Kind {
	case openflow.MatchExact:
		return m.Value.Lo, m.Value.Lo
	case openflow.MatchPrefix:
		mask := bitops.Mask64(m.PrefixLen, w)
		return m.Value.Lo & mask, (m.Value.Lo & mask) | (full &^ mask)
	case openflow.MatchRange:
		return m.Lo, m.Hi
	default:
		return 0, full
	}
}

// refSelected: non-strict selection of a rule by selector matches plus
// the cookie filter.
func refSelected(r *refRule, sel []openflow.Match, cookie, mask uint64) bool {
	if mask != 0 && (r.entry.Cookie^cookie)&mask != 0 {
		return false
	}
	for _, s := range sel {
		if s.Kind == openflow.MatchAny {
			continue
		}
		rm := openflow.Any(s.Field)
		for _, m := range r.entry.Matches {
			if m.Field == s.Field {
				rm = m
				break
			}
		}
		if !refSubsumes(s, rm) {
			return false
		}
	}
	return true
}

// resolve turns one command into the primitive single-entry operations
// the linear semantics dictate, updating the reference list.
func (rs *refStore) resolve(cmd *core.FlowCmd) []primOp {
	var ops []primOp
	switch cmd.Op {
	case core.CmdAdd:
		canon := canonRef(&cmd.Entry)
		for i := 0; i < len(rs.rules); {
			if refStrictEqual(&rs.rules[i].entry, &canon) {
				ops = append(ops, primOp{insert: false, entry: rs.rules[i].entry})
				rs.rules = append(rs.rules[:i], rs.rules[i+1:]...)
				continue
			}
			i++
		}
		ops = append(ops, primOp{insert: true, entry: cmd.Entry})
		rs.rules = append(rs.rules, refRule{entry: canon})

	case core.CmdModify:
		// Collect first (selection is against the pre-command state),
		// then remove+reinsert each selected rule in order.
		var selected []int
		for i := range rs.rules {
			if refSelected(&rs.rules[i], cmd.Entry.Matches, cmd.Entry.Cookie, cmd.CookieMask) {
				selected = append(selected, i)
			}
		}
		for off, idx := range selected {
			i := idx - off // earlier removals shift the remainder left
			old := rs.rules[i].entry
			mod := canonRef(&old)
			mod.Instructions = cmd.Entry.Instructions
			mod = canonRef(&mod)
			ops = append(ops,
				primOp{insert: false, entry: old},
				primOp{insert: true, entry: mod})
			rs.rules = append(rs.rules[:i], rs.rules[i+1:]...)
			rs.rules = append(rs.rules, refRule{entry: mod})
		}

	case core.CmdDelete, core.CmdDeleteStrict:
		canon := canonRef(&cmd.Entry)
		for i := 0; i < len(rs.rules); {
			r := &rs.rules[i]
			var hit bool
			if cmd.Op == core.CmdDelete {
				hit = refSelected(r, cmd.Entry.Matches, cmd.Entry.Cookie, cmd.CookieMask)
			} else {
				hit = refStrictEqual(&r.entry, &canon) &&
					(cmd.CookieMask == 0 || (r.entry.Cookie^cmd.Entry.Cookie)&cmd.CookieMask == 0)
			}
			if hit {
				ops = append(ops, primOp{insert: false, entry: r.entry})
				rs.rules = append(rs.rules[:i], rs.rules[i+1:]...)
				continue
			}
			i++
		}
	}
	return ops
}

// classify: brute-force winner — highest priority, earliest installed.
func (rs *refStore) classify(h *openflow.Header) (*openflow.FlowEntry, bool) {
	var best *openflow.FlowEntry
	for i := range rs.rules {
		e := &rs.rules[i].entry
		if !e.MatchesHeader(h) {
			continue
		}
		if best == nil || e.Priority > best.Priority {
			best = e
		}
	}
	return best, best != nil
}

// TestDifferentialExpiryVsExplicitDeletes is the lifecycle counterpart
// of the differential above: pipeline A installs timed flows and lets
// the expiry sweeper remove them; pipeline B installs the SAME flows
// and replays A's flow-removed notifications as explicit strict
// deletes, in notification order. If expiry is exactly "a batched
// delete", the two operation histories are identical and the final
// memory reports must be byte-identical.
func TestDifferentialExpiryVsExplicitDeletes(t *testing.T) {
	cow.SealForTest(t)
	for _, seed := range []uint64{5, 23} {
		t.Run("", func(t *testing.T) {
			pool := filterset.GenerateACL("expirydiff", 100, seed).FlowEntries()
			rng := xrand.New(seed * 104729)

			pA := core.NewPipeline()
			if _, err := pA.AddTable(aclTableConfig()); err != nil {
				t.Fatal(err)
			}
			pB := core.NewPipeline()
			if _, err := pB.AddTable(aclTableConfig()); err != nil {
				t.Fatal(err)
			}

			t0 := pA.LifecycleClock()
			var cursor uint64
			next := 0
			const rounds = 12
			for round := 0; round < rounds; round++ {
				now := t0 + int64(round)
				pA.SetLifecycleClock(now)

				// Install a batch of flows with short, varied timeouts
				// on A, and the identical batch on B.
				txA, txB := pA.Begin(), pB.Begin()
				for i := 0; i < 8 && next < len(pool); i++ {
					e := pool[next]
					next++
					if rng.Float64() < 0.5 {
						e.IdleTimeout = uint16(1 + rng.Intn(3))
					} else {
						e.HardTimeout = uint16(1 + rng.Intn(4))
					}
					txA.Add(0, &e)
					txB.Add(0, &e)
				}
				if _, err := txA.Commit(); err != nil {
					t.Fatalf("seed %d round %d: A commit: %v", seed, round, err)
				}
				if _, err := txB.Commit(); err != nil {
					t.Fatalf("seed %d round %d: B commit: %v", seed, round, err)
				}

				// Expire on A; replay the removals on B as one strict-
				// delete transaction in notification order.
				if _, err := pA.SweepExpired(now); err != nil {
					t.Fatalf("seed %d round %d: sweep: %v", seed, round, err)
				}
				recs, c, dropped := pA.FlowRemovedSince(cursor)
				cursor = c
				if dropped != 0 {
					t.Fatalf("seed %d round %d: %d notifications dropped", seed, round, dropped)
				}
				if len(recs) > 0 {
					tx := pB.Begin()
					for i := range recs {
						tx.DeleteStrict(recs[i].Table, recs[i].Entry.Priority, recs[i].Entry.Matches...)
					}
					if _, err := tx.Commit(); err != nil {
						t.Fatalf("seed %d round %d: replay commit: %v", seed, round, err)
					}
				}
				if pA.Rules() != pB.Rules() {
					t.Fatalf("seed %d round %d: rule counts diverged: expiry=%d replay=%d",
						seed, round, pA.Rules(), pB.Rules())
				}
			}

			// Drain the stragglers so both sides converge, then compare.
			if _, err := pA.SweepExpired(t0 + rounds + 16); err != nil {
				t.Fatal(err)
			}
			recs, _, dropped := pA.FlowRemovedSince(cursor)
			if dropped != 0 {
				t.Fatalf("seed %d: final drain dropped %d notifications", seed, dropped)
			}
			if len(recs) > 0 {
				tx := pB.Begin()
				for i := range recs {
					tx.DeleteStrict(recs[i].Table, recs[i].Entry.Priority, recs[i].Entry.Matches...)
				}
				if _, err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}

			repA := pA.MemoryReport().String()
			repB := pB.MemoryReport().String()
			if repA != repB {
				t.Fatalf("seed %d: memory reports diverged:\n--- expiry\n%s\n--- explicit deletes\n%s", seed, repA, repB)
			}
		})
	}
}
