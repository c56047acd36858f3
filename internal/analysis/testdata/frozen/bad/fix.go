// Package fix is the known-bad fixture for the frozen analyzer: writes to
// //bplint:frozen state after the value has escaped its constructor, writes
// through already-published values, an exported mutator, and a late write
// published through sync.Once.
package fix

import "sync"

//bplint:frozen
type rec struct {
	vals []int
	n    int
}

var published *rec

// push is an unexported builder helper: legal in itself, each call site is
// checked against the owning variable's escape point.
func (r *rec) push(v int) { r.vals = append(r.vals, v) }

// Mutate lets other packages write frozen state.
func Mutate(r *rec) { // want "frozen builders must stay unexported"
	r.n = 2
}

func buildAndLeak() *rec {
	r := &rec{}
	r.push(1)
	published = r
	r.n = 1 // want "written after r escapes its constructor"
	return r
}

func mutateAfterEscape() *rec {
	r := &rec{}
	published = r
	r.push(2) // want "written after r escapes its constructor"
	return r
}

func steal() {
	r := published
	r.n = 3 // want "already-published value"
}

func direct() {
	published.n = 4 // want "does not construct"
}

// lazy publishes a frozen value through sync.Once. The Once orders the
// writers, but the value is written after construction all the same.
type lazy struct {
	once sync.Once
	r    *rec
}

func (l *lazy) Get() *rec { // want "frozen builders must stay unexported"
	l.once.Do(func() {
		l.r = &rec{}
		l.r.n = 1
	})
	return l.r
}
