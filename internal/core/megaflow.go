package core

// This file holds what only the masked tier of the flow cache
// (flowcache.go) does: where its masks come from, and how its entries
// outlive a commit. The style is the OVS megaflow cache's.
//
// The exact tier only absorbs exact repeats — every new flow still pays
// the full walk. The masked tier absorbs whole regions: when a walk runs
// with tracing enabled, every lookup layer records the union of header
// bits it actually consulted (see trace.go and the backends' Lookup
// implementations), and the walk's outcome is installed under that mask.
// Any later packet agreeing with the original on the consulted bits is
// guaranteed the identical walk outcome — the mask-correctness invariant —
// so one cached entry short-circuits the traversal for, say, an entire
// /16 of new users. Traced walks produce few distinct masks (one per
// control-flow shape of the pipeline), so the tuple list a lookup probes
// stays short.
//
// Invalidation is precise where the exact tier's is wholesale: a
// committed transaction rebuilds the snapshot eagerly, projects every
// touched rule onto the packed key space (ruleShadow), evicts the cached
// megaflows the rule can affect, and re-stamps the survivors to the new
// snapshot version — all before Commit returns, and with exactly one
// snapshot version bump per commit. The sweep never visits the exact
// tier: an exact entry is valid only at the version it was filled at.

// sweep runs a commit's precise invalidation: every entry valid at
// prevVer is tested against the committed rules' shadows; overlapping
// entries are evicted, the rest re-stamped to newVer so they survive the
// snapshot rebuild. Entries at any other version are dead already and
// left alone. Caller is the committing writer; installs serialise on mu.
func (c *flowCache) sweep(shadows []ruleShadow, prevVer, newVer uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var key flowMask
	tuples := *c.tuples.Load()
	for t := range tuples {
		tp := &tuples[t]
		for i := range tp.slots {
			e := &tp.slots[i]
			if e.ver.Load() != prevVer {
				continue
			}
			for w := 0; w < flowKeyWords; w++ {
				key[w] = e.key[w].Load()
			}
			rewritten := e.rewritten.Load()
			stamp := newVer
			for si := range shadows {
				if shadows[si].overlapsMegaflow(&key, &tp.mask, rewritten) {
					stamp = 0 // evict
					break
				}
			}
			e.restamp(stamp)
		}
	}
}
