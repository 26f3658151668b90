package rules

import "detective/internal/similarity"

// CachedSpecs returns the spec of every list in the candidate cache.
func (c *Catalog) CachedSpecs() []similarity.Spec {
	var out []similarity.Spec
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		for k := range sh.m {
			out = append(out, k.spec)
		}
		sh.mu.RUnlock()
	}
	return out
}
