// Package fix is the known-good fixture for the frozen analyzer: the
// sanctioned construction patterns — build-then-return, early returns
// inside the build loop, value-typed assembly, builder helpers — plus one
// documented allow.
package fix

//bplint:frozen
type rec struct {
	vals []int
	n    int
}

//bplint:frozen
type summary struct {
	total int
}

func (r *rec) push(v int) { r.vals = append(r.vals, v) }

// build writes only between construction and return.
func build(n int) *rec {
	r := &rec{}
	for i := 0; i < n; i++ {
		r.push(i)
		r.n++
	}
	return r
}

// buildLoop returns from inside the loop — a lexically early return does
// not end the construction phase, since it terminates execution.
func buildLoop(src []int) *rec {
	r := &rec{}
	for _, v := range src {
		if v < 0 {
			return r
		}
		r.vals = append(r.vals, v)
	}
	return r
}

// summarize assembles a value-typed frozen result; copies do not alias, so
// writes are free until the address escapes.
func summarize(vals []int) summary {
	var s summary
	for _, v := range vals {
		s.total += v
	}
	return s
}

func adjust() summary {
	s := summarize(nil)
	s.total = 0
	return s
}

var global *rec

func patch() {
	global.n = 9 //bplint:allow frozen fixture: documented post-publication patch
}
