package core

import (
	"fmt"
	"reflect"

	"ofmtl/internal/crossprod"
	"ofmtl/internal/memmodel"
	"ofmtl/internal/openflow"
)

// The internal reaches of the model driver (driver_test.go, package
// core_test), which also drives the pipeline through ofproto and so
// cannot live in package core.

var SameResult = sameResult

// CheckTable checks table id against its structures, the structures
// first. Under mbt, every combination store passes its structural check
// (crossprod.Table.Check: control bytes, binding chains, the overflow
// freelist, and prefix stages holding exactly its live keys' prefixes —
// a stale stage changes no verdict until it prunes a live key), and
// every range searcher's elementary intervals pass theirs, which
// includes a from-scratch sweep (rangelookup.Table.Check). Then the
// account: the published memory figure is the live backend's statement
// as it stands, and the statement is a recount: a backend of the same
// kind rebuilt from the table's rule store and given the live backend's
// high-water marks states the same memories, component by component.
func (p *Pipeline) CheckTable(id openflow.TableID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	t := p.tables[id]
	if b, ok := t.backend.(*mbtBackend); ok {
		combos := []*crossprod.Table{b.combos}
		for _, s := range b.searchers {
			switch s := s.(type) {
			case *PrefixFieldSearcher:
				combos = append(combos, s.combos)
			case *RangeFieldSearcher:
				if err := s.table.Check(); err != nil {
					return fmt.Errorf("%s searcher: %w", s.field, err)
				}
			}
		}
		for _, c := range combos {
			if err := c.Check(); err != nil {
				return err
			}
		}
	}
	live := memAccount{report: &memmodel.SystemReport{}, prefix: "live"}
	t.backend.memory(&live)
	if pub := t.Memory(); pub.Backend != t.backend.Kind() || pub.Rules != t.rules || pub.BackendStats != live.BackendStats {
		return fmt.Errorf("publishes %+v; its %s backend states %+v for %d rules", pub, t.backend.Kind(), live.BackendStats, t.rules)
	}
	nb, err := t.buildBackendFromStore(t.backend.Kind())
	if err != nil {
		return fmt.Errorf("rebuilding: %w", err)
	}
	if hw, ok := t.backend.(highWater); ok {
		nb.(highWater).restoreMarks(hw.marks(nil))
	}
	re := memAccount{report: &memmodel.SystemReport{}, prefix: "live"}
	nb.memory(&re)
	if !reflect.DeepEqual(re.report, live.report) {
		return fmt.Errorf("states\n%v\na rebuild from its rules states\n%v", live.report.Components, re.report.Components)
	}
	return nil
}

// Wildcards reports, for an mbt table, how many live rules leave
// dimension dim open and whether its wildcard bit is set.
func (p *Pipeline) Wildcards(id openflow.TableID, dim int) (n int, on, isMBT bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	b, ok := p.tables[id].backend.(*mbtBackend)
	if !ok {
		return 0, false, false
	}
	return b.wildCount[dim], b.wild&(1<<dim) != 0, true
}
