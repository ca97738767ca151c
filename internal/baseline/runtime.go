package baseline

import (
	"fmt"
	"strings"

	"ofmtl/internal/core"
	"ofmtl/internal/filterset"
	"ofmtl/internal/openflow"
)

// Runtime grades one of the switch's own lookup backends: it loads the
// rules into a one-table pipeline pinned to that backend and reads the
// figures off the table. Two backends are Table I rows:
//
//   - tss, tuple space search (Srinivasan et al., the paper's reference
//     [12]), the hashing category. A lookup probes every tuple's hash
//     table and walks the spill list of rules with port ranges, which do
//     not hash; its cost is that probe count, and an update is one hash
//     insert.
//   - lineartcam, the hardware category. Every rule expands into ternary
//     rows (ranges become prefix sets), a lookup compares all rows in
//     parallel (one access), and an insert into the priority-ordered
//     array shifts half the rows on average.
//
// Memory is the backend's search and index bits, action rows excluded as
// for every row of the table.
type Runtime struct {
	kind  string
	rules int
	pipe  *core.Pipeline
	table *core.LookupTable
}

// NewRuntime returns an empty classifier on the named backend,
// core.BackendTSS or core.BackendLinearTCAM.
func NewRuntime(kind string) *Runtime { return &Runtime{kind: kind} }

// Name implements Classifier.
func (c *Runtime) Name() string {
	if c.kind == core.BackendLinearTCAM {
		return "tcam"
	}
	return c.kind
}

// Category implements Classifier.
func (c *Runtime) Category() Category {
	if c.kind == core.BackendLinearTCAM {
		return CategoryHardware
	}
	return CategoryHashing
}

// Build implements Classifier: the rules become the ACL application's
// flow entries, rule i at priority len(rules)-i.
func (c *Runtime) Build(rules []filterset.ACLRule) error {
	p := core.NewPipeline()
	t, err := p.AddTable(core.TableConfig{ID: 0, Fields: core.AppTables(filterset.ACL)[0], Backend: c.kind})
	if err != nil {
		return err
	}
	f := filterset.ACLFilter{Rules: rules}
	for i, e := range f.FlowEntries() {
		if err := t.Insert(&e); err != nil {
			return fmt.Errorf("baseline: %s rule %d: %w", c.Name(), i, err)
		}
	}
	c.rules, c.pipe, c.table = len(rules), p, t
	return nil
}

// Classify implements Classifier.
func (c *Runtime) Classify(h *openflow.Header) (int, bool) {
	m, ok := c.table.Classify(h)
	if !ok {
		return 0, false
	}
	return c.rules - m.Priority, true
}

// MemoryBits implements Classifier.
func (c *Runtime) MemoryBits() int {
	s := c.pipe.MemoryStats().Tables[0]
	return int(s.SearchBits + s.IndexBits)
}

// LookupCost implements Classifier: a TCAM compares in one parallel
// access; tss makes the same probes for every header.
func (c *Runtime) LookupCost() int {
	if c.kind == core.BackendLinearTCAM {
		return 1
	}
	return c.table.LookupProbes()
}

// UpdateCost implements Classifier.
func (c *Runtime) UpdateCost() int {
	if c.kind == core.BackendLinearTCAM {
		return c.Entries()/2 + 1
	}
	return 1
}

// Entries returns the stored entries: the expanded ternary rows (the
// range-expansion blow-up over the rule count) under lineartcam, as the
// table's memory report sizes its array; the rules under tss.
func (c *Runtime) Entries() int {
	if c.kind != core.BackendLinearTCAM {
		return c.rules
	}
	for _, m := range c.pipe.MemoryReport().Components {
		if strings.HasSuffix(m.Name, "/tcam/array") {
			return m.Depth
		}
	}
	return 0
}
