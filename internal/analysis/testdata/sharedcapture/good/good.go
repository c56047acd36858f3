// Package fix is the known-good fixture for the sharedcapture analyzer:
// the sharing vocabulary — channels, sync and sync/atomic values, function
// values, read-only captures — plus one documented allow.
package fix

import (
	"sync"
	"sync/atomic"
)

// forEach is the worker-pool shape: every capture is a channel, a
// WaitGroup, or a function value.
func forEach(n int, fn func(int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// tally is share-nothing: each goroutine keeps its own total and hands it
// back on a channel.
func tally(vals []int) int {
	sums := make(chan int)
	for _, v := range vals {
		v := v
		go func() {
			sum := 0
			sum += v
			sums <- sum
		}()
	}
	total := 0
	for range vals {
		total += <-sums
	}
	return total
}

// count shares only an atomic counter, which either side may write.
func count(n int) int64 {
	var hits atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hits.Add(1)
		}()
	}
	wg.Wait()
	return hits.Load()
}

// readOnly captures are effectively immutable after the launch.
func readOnly(cfg string, out chan<- string) {
	go func() {
		out <- cfg
	}()
}

func counter() {
	n := 0
	go func() {
		n++ //bplint:allow sharedcapture fixture: demo of the escape hatch
	}()
}
