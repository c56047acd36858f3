// Package fix is the known-bad fixture for the oncepublish analyzer: the
// unsynchronized double-checked load and a write outside the Do body.
package fix

import "sync"

type cell struct {
	once sync.Once
	res  *int
}

func (c *cell) getRacy(compute func() *int) *int {
	if c.res != nil { // want "unsynchronized load"
		return c.res // want "unsynchronized load"
	}
	c.once.Do(func() {
		c.res = compute()
	})
	return c.res
}

func (c *cell) poke(v *int) {
	c.res = v // want "written outside c.once.Do"
}

// probeEntry is the generic shape of cell: the payload lookup must resolve
// an instantiated field back to its declaration.
type probeEntry[R any] struct {
	once sync.Once
	res  R
}

func (e *probeEntry[R]) getRacy(compute func() R) R {
	r := e.res // want "unsynchronized load"
	e.once.Do(func() {
		e.res = compute()
	})
	_ = r
	return e.res
}

func (e *probeEntry[R]) poke(v R) {
	e.res = v // want "written outside e.once.Do"
}
