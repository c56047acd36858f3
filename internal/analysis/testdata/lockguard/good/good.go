// Package fix is the known-good fixture for the lockguard analyzer: every
// guarded access sits under a dominating Lock (plain, deferred-unlock, or
// inside a closure that takes the lock itself), the cross-struct form is
// published under the owner's lock, and a caller-holds-lock helper carries
// a documented allow directive.
package fix

import "sync"

type cache struct {
	mu      sync.Mutex
	entries map[string]int // guarded by mu
}

type record struct {
	val int // guarded by cache.mu
}

func (c *cache) get(k string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[k]
}

func (c *cache) put(k string, v int) {
	c.mu.Lock()
	if c.entries == nil {
		c.entries = map[string]int{}
	}
	c.entries[k] = v
	c.mu.Unlock()
}

func (c *cache) publish(r *record, v int) {
	c.mu.Lock()
	r.val = v
	c.mu.Unlock()
}

func (c *cache) fill(k string, compute func() int) {
	done := func() {
		c.mu.Lock()
		c.entries[k] = compute()
		c.mu.Unlock()
	}
	done()
}

// sizeLocked is a caller-holds-lock helper; the allow names the contract.
func (c *cache) sizeLocked() int {
	//bplint:allow lockguard caller holds mu — every call site locks first
	return len(c.entries)
}

func (c *cache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sizeLocked()
}

// probeCache is the generic shape of cache, read under its lock.
type probeCache[R any] struct {
	mu      sync.Mutex
	entries map[string]R // guarded by mu
}

func (c *probeCache[R]) get(k string) R {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[k]
}
