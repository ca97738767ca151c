package ofmtl_test

import (
	"reflect"
	"testing"

	"ofmtl/internal/core"
	"ofmtl/internal/cow"
	"ofmtl/internal/filterset"
	"ofmtl/internal/openflow"
	"ofmtl/internal/traffic"
	"ofmtl/internal/xrand"
)

// Two pipelines fed different operation histories that must end in the
// same state, down to the memory report — whose depths and widths are
// shaped by the exact sequence of primitive inserts and removes. Neither
// side is a reference: what is checked is that a history's shape changes
// nothing (the executable model in internal/core checks what the state
// is).

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

func aclPipeline(t *testing.T) *core.Pipeline {
	t.Helper()
	p := core.NewPipeline()
	if _, err := p.AddTable(aclTableConfig()); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDifferentialTxVsSingleOps commits randomized batches of add,
// modify, delete and delete-strict commands as one transaction on
// pipeline A and one command per transaction on pipeline B: a
// transaction applies its commands in order, so after every round the
// counts, the rule sets and every verdict agree, and at the end the
// memory reports are byte-identical.
func TestDifferentialTxVsSingleOps(t *testing.T) {
	cow.SealForTest(t)
	for _, seed := range []uint64{3, 17, 99} {
		t.Run("", func(t *testing.T) {
			f := filterset.GenerateACL("txdiff", 120, seed)
			pool := f.FlowEntries()
			for i := range pool {
				pool[i].Cookie = uint64(i % 8)
			}
			probes := traffic.ACLTrace(f, 256, 0.8, seed)
			pA, pB := aclPipeline(t), aclPipeline(t)
			rng := xrand.New(seed * 7919)
			for round := 0; round < 40; round++ {
				txA := pA.Begin()
				var sum [5]int
				for n := 1 + rng.Intn(24); n > 0; n-- {
					cmd := randomCmd(rng, pool)
					txA.FlowMod(cmd)
					res, err := pB.Begin().FlowMod(cmd).Commit()
					if err != nil {
						t.Fatalf("seed %d round %d: single command %v: %v", seed, round, cmd, err)
					}
					c := res.Counts()
					for i := 1; i < len(c); i++ {
						sum[i] += c[i]
					}
					sum[0]++
				}
				res, err := txA.Commit()
				if err != nil {
					t.Fatalf("seed %d round %d: batch: %v", seed, round, err)
				}
				if res.Counts() != sum || pA.Rules() != pB.Rules() {
					t.Fatalf("seed %d round %d: batch counts %v / %d rules, one by one %v / %d rules",
						seed, round, res.Counts(), pA.Rules(), sum, pB.Rules())
				}
				for i := range probes {
					hA, hB := probes[i], probes[i]
					if a, b := pA.Execute(&hA), pB.Execute(&hB); !reflect.DeepEqual(a, b) {
						t.Fatalf("seed %d round %d probe %d: batch %+v, one by one %+v", seed, round, i, a, b)
					}
				}
			}
			if a, b := pA.MemoryReport().String(), pB.MemoryReport().String(); a != b {
				t.Fatalf("seed %d: memory reports diverged:\n--- batch\n%s\n--- one by one\n%s", seed, a, b)
			}
		})
	}
}

// randomCmd draws a command over the pool: re-adds (some with new
// instructions, replacing), modifies and deletes selecting by a pool
// rule's matches with some constraints dropped, cookie sweeps and strict
// deletes.
func randomCmd(rng *xrand.Source, pool []openflow.FlowEntry) core.FlowCmd {
	e := pool[rng.Intn(len(pool))]
	var wide []openflow.Match
	for _, m := range e.Matches {
		if rng.Float64() >= 0.3 {
			wide = append(wide, m)
		}
	}
	out := []openflow.Instruction{openflow.WriteActions(openflow.Output(uint32(1 + rng.Intn(64))))}
	switch r := rng.Float64(); {
	case r < 0.45:
		if rng.Float64() < 0.3 {
			e.Instructions = out
		}
		return core.FlowCmd{Op: core.CmdAdd, Entry: e}
	case r < 0.60:
		return core.FlowCmd{Op: core.CmdModify, Entry: openflow.FlowEntry{Matches: wide, Instructions: out}}
	case r < 0.72:
		return core.FlowCmd{Op: core.CmdDelete, Entry: openflow.FlowEntry{Matches: wide}}
	case r < 0.80:
		return core.FlowCmd{Op: core.CmdDelete, CookieMask: 7, Entry: openflow.FlowEntry{Cookie: uint64(rng.Intn(8))}}
	default:
		return core.FlowCmd{Op: core.CmdDeleteStrict, Entry: openflow.FlowEntry{Priority: e.Priority, Matches: e.Matches}}
	}
}

// TestDifferentialExpiryVsExplicitDeletes is the lifecycle counterpart:
// pipeline A installs timed flows and lets
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
