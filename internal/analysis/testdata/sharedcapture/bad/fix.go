// Package fix is the known-bad fixture for the sharedcapture analyzer:
// go-launched closures sharing written captures with their parent, with
// no lock on either side or with a lock around every access.
package fix

import "sync"

func tally(vals []int) int {
	total := 0
	var wg sync.WaitGroup
	for _, v := range vals {
		v := v
		wg.Add(1)
		go func() {
			total += v // want "not a channel, function value or sync/atomic value"
			wg.Done()
		}()
	}
	wg.Wait()
	return total // want "not a channel, function value or sync/atomic value"
}

func race(done chan struct{}) {
	best := 0
	go func() {
		if best < 10 { // want "not a channel, function value or sync/atomic value"
			done <- struct{}{}
		}
	}()
	best = 42 // want "not a channel, function value or sync/atomic value"
}

// guardedTally shares a written accumulator with every access behind one
// mutex: race-free, but shared. A worker keeps its own total and hands it
// back on a channel instead.
func guardedTally(vals []int) int {
	var mu sync.Mutex
	total := 0
	var wg sync.WaitGroup
	for _, v := range vals {
		v := v
		wg.Add(1)
		go func() {
			defer wg.Done()
			mu.Lock()
			total += v // want "not a channel, function value or sync/atomic value"
			mu.Unlock()
		}()
	}
	wg.Wait()
	mu.Lock()
	t := total // want "not a channel, function value or sync/atomic value"
	mu.Unlock()
	return t
}
