package ofmtl_test

import (
	"reflect"
	"sync"
	"testing"

	"ofmtl/internal/baseline"
	"ofmtl/internal/core"
	"ofmtl/internal/cow"
	"ofmtl/internal/filterset"
	"ofmtl/internal/openflow"
	"ofmtl/internal/traffic"
	"ofmtl/internal/xrand"
)

// TestDifferentialACLvsLinear drives randomized rule sets and headers
// through both the dense-array lookup engine and the brute-force linear
// classifier of internal/baseline, asserting the identical winning
// (priority, instructions) for every packet. The headers are executed
// concurrently from several goroutines so the run also exercises the
// snapshot engine under the race detector (CI runs the suite with -race).
func TestDifferentialACLvsLinear(t *testing.T) {
	cow.SealForTest(t)
	seeds := []uint64{1, 7, 42}
	sizes := []int{50, 200, 700}
	for si, seed := range seeds {
		f := filterset.GenerateACL("diff", sizes[si], seed)
		entries := f.FlowEntries()

		p, err := core.BuildACL(f)
		if err != nil {
			t.Fatalf("seed %d: building pipeline: %v", seed, err)
		}
		lin := baseline.NewLinear()
		if err := lin.Build(f.Rules); err != nil {
			t.Fatalf("seed %d: building linear baseline: %v", seed, err)
		}

		// A mix of trace headers biased toward rule hits and fully random
		// headers probing the miss paths.
		headers := traffic.ACLTrace(f, 1024, 0.8, seed+100)
		rng := xrand.New(seed + 200)
		for i := 0; i < 512; i++ {
			headers = append(headers, openflow.Header{
				IPv4Src: uint32(rng.Uint64()),
				IPv4Dst: uint32(rng.Uint64()),
				SrcPort: uint16(rng.Intn(65536)),
				DstPort: uint16(rng.Intn(65536)),
				IPProto: uint8(rng.Intn(256)),
			})
		}

		// Expected winners from the linear scan, computed up front (the
		// linear baseline is not safe for concurrent use — it records its
		// per-call lookup cost).
		type expect struct {
			matched  bool
			priority int
			instrs   []openflow.Instruction
		}
		want := make([]expect, len(headers))
		for i := range headers {
			h := headers[i]
			if idx, ok := lin.Classify(&h); ok {
				want[i] = expect{
					matched:  true,
					priority: entries[idx].Priority,
					instrs:   entries[idx].Instructions,
				}
			}
		}

		tbl, ok := p.Table(0)
		if !ok {
			t.Fatal("ACL pipeline lost its table")
		}
		p.Refresh()
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		const workers = 4
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(headers); i += workers {
					h := headers[i]
					got, ok := tbl.Classify(&h)
					if ok != want[i].matched {
						errs <- "matched mismatch"
						return
					}
					if !ok {
						continue
					}
					if got.Priority != want[i].priority {
						errs <- "priority mismatch"
						return
					}
					if !reflect.DeepEqual(got.Instructions, want[i].instrs) {
						errs <- "instruction mismatch"
						return
					}
					// The full pipeline walk must agree on the verdict too.
					h2 := headers[i]
					res := p.Execute(&h2)
					if res.Matched != want[i].matched {
						errs <- "pipeline matched mismatch"
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatalf("seed %d: differential failure: %s", seed, e)
		}
	}
}

// TestDifferentialACLUnderChurn repeats the comparison while the rule set
// mutates: rules are removed and re-inserted between batches, and the
// engine must keep agreeing with a linear scan over the rules currently
// installed.
func TestDifferentialACLUnderChurn(t *testing.T) {
	cow.SealForTest(t)
	f := filterset.GenerateACL("churn", 120, 5)
	entries := f.FlowEntries()
	p, err := core.BuildACL(f)
	if err != nil {
		t.Fatal(err)
	}
	headers := traffic.ACLTrace(f, 256, 0.8, 31)

	// live[i] reports whether rule i is currently installed.
	live := make([]bool, len(entries))
	for i := range live {
		live[i] = true
	}
	linear := func(h *openflow.Header) (int, bool) {
		for i := range entries {
			if !live[i] {
				continue
			}
			if ruleAdmits(&entries[i], h) {
				return i, true
			}
		}
		return 0, false
	}

	rng := xrand.New(77)
	for round := 0; round < 20; round++ {
		// Toggle a few rules.
		for j := 0; j < 10; j++ {
			i := rng.Intn(len(entries))
			e := entries[i]
			if live[i] {
				if err := p.Remove(0, &e); err != nil {
					t.Fatalf("round %d: remove rule %d: %v", round, i, err)
				}
			} else {
				if err := p.Insert(0, &e); err != nil {
					t.Fatalf("round %d: insert rule %d: %v", round, i, err)
				}
			}
			live[i] = !live[i]
		}
		for _, h := range headers[:64] {
			hh := h
			res := p.Execute(&hh)
			idx, ok := linear(&h)
			if res.Matched != ok {
				t.Fatalf("round %d: matched=%v, linear=%v", round, res.Matched, ok)
			}
			if !ok {
				continue
			}
			// The verdict must match the winning rule's action.
			wantDrop := entries[idx].Instructions[0].Actions[0].Type == openflow.ActionDrop
			if wantDrop != res.Dropped {
				t.Fatalf("round %d: dropped=%v, want %v (rule %d)", round, res.Dropped, wantDrop, idx)
			}
		}
	}
}

// ruleAdmits reports whether a rendered ACL flow entry matches the header
// (an independent re-implementation against which the engine is checked).
func ruleAdmits(e *openflow.FlowEntry, h *openflow.Header) bool {
	for _, m := range e.Matches {
		v := h.Get(m.Field).Lo
		switch m.Kind {
		case openflow.MatchAny:
		case openflow.MatchExact:
			if v != m.Value.Lo {
				return false
			}
		case openflow.MatchPrefix:
			w := m.Field.Bits()
			if m.PrefixLen > 0 {
				mask := ^uint64(0) << uint(w-m.PrefixLen)
				if (v^m.Value.Lo)&mask != 0 {
					return false
				}
			}
		case openflow.MatchRange:
			if v < m.Lo || v > m.Hi {
				return false
			}
		default:
			return false
		}
	}
	return true
}
