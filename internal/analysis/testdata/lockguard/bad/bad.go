// Package fix is the known-bad fixture for the lockguard analyzer:
// guarded fields touched with no lock, after an unlock, under a lock taken
// only on one path, and through the cross-struct owner form.
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
	return c.entries[k] // want "accessed without the mutex provably held"
}

func (c *cache) put(k string, v int) {
	c.mu.Lock()
	c.entries[k] = v
	c.mu.Unlock()
	c.entries[k] = v // want "accessed without the mutex provably held"
}

func (c *cache) branchy(k string, cond bool) int {
	if cond {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	return c.entries[k] // want "accessed without the mutex provably held"
}

func (c *cache) cross(r *record) int {
	return r.val // want "accessed without the mutex provably held"
}

func (c *cache) closurePublish(k string, v int) {
	c.mu.Lock()
	done := func() {
		c.entries[k] = v // want "accessed without the mutex provably held"
	}
	done()
	c.mu.Unlock()
}

type orphan struct {
	// guarded by missing
	v int // want "bad guarded-by annotation"
}

func (o *orphan) read() int { return o.v }

// probeCache is the generic shape of cache: the guard lookup must resolve
// an instantiated field back to its declaration.
type probeCache[R any] struct {
	mu      sync.Mutex
	entries map[string]R // guarded by mu
}

func (c *probeCache[R]) get(k string) R {
	return c.entries[k] // want "accessed without the mutex provably held"
}
