// Package fix is the known-good fixture for the oncepublish analyzer:
// publication inside Do, reads behind a dominating Do or lock, plus one
// documented allow.
package fix

import "sync"

type cell struct {
	once sync.Once
	res  *int
}

// get publishes inside Do and reads only after it.
func (c *cell) get(compute func() *int) *int {
	c.once.Do(func() {
		c.res = compute()
	})
	return c.res
}

// registry reads cells back under its own lock — the store read-back path.
type registry struct {
	mu    sync.Mutex
	cells map[string]*cell
}

func (r *registry) peek(k string) *int {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.cells[k]
	if c == nil {
		return nil
	}
	return c.res
}

// sampleStat is a monitoring-only racy peek, documented as such.
func (c *cell) sampleStat() bool {
	return c.res != nil //bplint:allow oncepublish fixture: monitoring-only racy peek
}

// probeEntry is the generic shape of cell, published the same way.
type probeEntry[R any] struct {
	once sync.Once
	res  R
}

func (e *probeEntry[R]) get(compute func() R) R {
	e.once.Do(func() {
		e.res = compute()
	})
	return e.res
}
