// Package tracestore memoizes recorded instruction streams across an
// experiment grid. The paper's methodology is trace-driven: each benchmark's
// stream is fixed, so the (predictor kind × budget × benchmark) grid in
// internal/experiments re-simulates byte-identical instructions in every
// cell. The store makes the grid pay generation cost once per key — the
// first job for a benchmark records the live stream, every later job (and
// every concurrent one, which blocks until the recording exists) replays it.
package tracestore

import (
	"sync"

	"branchsim/internal/trace"
)

// Key identifies one recorded stream: a workload identity plus the
// instruction budget it was recorded to. Runs with different budgets use
// different keys; a longer run never silently replays a shorter recording.
type Key struct {
	// Name is the workload name (e.g. "164.gzip").
	Name string
	// Seed is the workload's construction seed.
	Seed uint64
	// Insts is the recorded instruction count.
	Insts int64
}

// Store is a concurrency-safe memoizing cache of Recordings and their
// derived memory-latency sidecars (sidecar.go).
type Store struct {
	mu       sync.Mutex
	entries  map[Key]*entry               // guarded by mu
	sidecars map[sidecarKey]*sidecarEntry // guarded by mu
}

// entry serializes the recording of one key: the first goroutine to arrive
// records inside the once; the rest block on it and then replay.
type entry struct {
	once sync.Once
	rec  *trace.Recording // guarded by Store.mu
}

// New returns an empty store.
func New() *Store {
	return &Store{entries: make(map[Key]*entry)}
}

// Recording returns the memoized recording for key, calling record to
// produce it on first use. Concurrent callers with the same key share one
// recording; record runs at most once per key.
func (s *Store) Recording(key Key, record func() *trace.Recording) *trace.Recording {
	s.mu.Lock()
	e := s.entries[key]
	if e == nil {
		e = &entry{}
		s.entries[key] = e
	}
	s.mu.Unlock()
	var rec *trace.Recording
	e.once.Do(func() {
		rec = record()
		// Publish under the store lock so Len/SizeBytes can read
		// concurrently with an in-flight recording.
		s.mu.Lock()
		e.rec = rec
		s.mu.Unlock()
	})
	if rec == nil {
		s.mu.Lock()
		rec = e.rec
		s.mu.Unlock()
	}
	return rec
}

// Source returns a fresh replay cursor over the memoized recording for key,
// recording up to key.Insts instructions from gen's stream on first use.
// Each call returns an independent cursor, so callers can run concurrently.
func (s *Store) Source(key Key, gen func() trace.Source) trace.Source {
	rec := s.Recording(key, func() *trace.Recording {
		return trace.Record(gen(), key.Insts)
	})
	return rec.Replay()
}

// Len returns the number of memoized recordings.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, e := range s.entries {
		if e.rec != nil {
			n++
		}
	}
	return n
}

// SizeBytes returns the total in-memory footprint of the memoized
// recordings.
func (s *Store) SizeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, e := range s.entries {
		if e.rec != nil {
			n += e.rec.SizeBytes()
		}
	}
	return n
}
