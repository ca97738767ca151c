package baseline

import (
	"ofmtl/internal/filterset"
	"ofmtl/internal/openflow"
)

// Linear is the naive baseline: scan every rule in priority order.
type Linear struct {
	rules      []filterset.ACLRule
	lastLookup int
}

// NewLinear returns an empty linear classifier.
func NewLinear() *Linear { return &Linear{} }

// Name implements Classifier.
func (l *Linear) Name() string { return "linear" }

// Category implements Classifier.
func (l *Linear) Category() Category { return CategoryNaive }

// Build implements Classifier.
func (l *Linear) Build(rules []filterset.ACLRule) error {
	l.rules = append([]filterset.ACLRule(nil), rules...)
	return nil
}

// Classify implements Classifier.
func (l *Linear) Classify(h *openflow.Header) (int, bool) {
	for i := range l.rules {
		l.lastLookup = i + 1
		if ruleMatches(&l.rules[i], h) {
			return i, true
		}
	}
	l.lastLookup = len(l.rules)
	return 0, false
}

// MemoryBits implements Classifier.
func (l *Linear) MemoryBits() int { return len(l.rules) * ruleTupleBits }

// LookupCost implements Classifier.
func (l *Linear) LookupCost() int { return l.lastLookup }

// UpdateCost implements Classifier: one row write.
func (l *Linear) UpdateCost() int { return 1 }
