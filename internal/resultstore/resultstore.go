// Package resultstore is the persistent tier beneath the experiment
// grid's plan: a disk-backed, content-addressed store of simulated cell
// results. A run's plan (internal/experiments) collapses duplicate cells
// by this package's Key before anything runs, so within one run each cell
// asks the store once; this store makes the results survive the process,
// so `cmd/reproduce` becomes incremental — a rerun, or a run after a
// config tweak, recomputes only the cells whose identity actually
// changed. Concurrent plans over one store may compute a cell twice, but
// each write is an atomic rename, so a reader sees a whole cell or none.
//
// Identity is the whole design. A cell's Key names everything its result
// is a function of: the predictor construction (kind, organization,
// budget), the workload profile, the measurement window, the simulated
// machine, and the code that computes it — a digest of the simulator,
// predictor, delay-model and workload sources plus the Go toolchain
// version (Key.Code). The stream is not hashed: the profile's name and
// seed, the run length and the workload generator's code already fix its
// bytes. Change a workload generator, a predictor, a delay-model
// coefficient or a machine parameter, and the affected cells miss by
// construction. So stale entries are never wrong, only dead weight: a
// result is served only to a key every one of its inputs agrees with.
// Nothing is ever looked up by mtime or filename convention. The dead
// weight is easy to drop: cells are laid out under one directory per
// Key.Code, so all of a stale build's cells are one directory to remove.
//
// Robustness rule: the store must never error out and never serve bad
// data. A truncated, corrupted, wrong-version or wrong-payload cell file is
// treated as a miss (counted as an invalidation), recomputed, and
// rewritten; an
// unwritable directory degrades the store to a pass-through. The
// equivalence suites in internal/experiments prove store-served cells are
// bit-identical to fresh simulation.
package resultstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"branchsim/internal/funcsim"
	"branchsim/internal/pipeline"
)

// Key canonically identifies one experiment grid cell across processes.
// Two cells with equal keys construct byte-identical simulations, so their
// stored records are interchangeable — the on-disk analogue of the cell
// cache's in-process contract. Every field must flow into Canonical;
// TestCanonicalKeyCoverage (internal/experiments) changes each field and
// requires Canonical to change, so a field added without a key extension
// fails a test instead of colliding silently across processes.
//
// Code covers every input compiled into the binary: delaymodel.Default's
// coefficients, the profile table, the factory sizing. An input read at
// run time is not covered, and must get its own field when it lands — a
// delaymodel.Model in the experiments' Options for a clock sweep, say.
type Key struct {
	// Family is the cell's result family: "accuracy" (functional runs,
	// funcsim.Result) or "timing" (cycle-level runs, pipeline.Result).
	Family string
	// Kind and Org name the predictor construction: the factory kind and
	// the organization identity ("ideal", "override", "lag64", ... — ""
	// for accuracy cells of the plain factory predictor).
	Kind string
	Org  string
	// Budget is the hardware budget in bytes.
	Budget int
	// Bench and Seed identify the workload profile.
	Bench string
	Seed  uint64
	// Insts and Warmup are the measurement window.
	Insts  int64
	Warmup int64
	// SimOptions canonicalizes simulator options beyond the window ("" for
	// the standard run; e.g. "blocks.fw8.bb4" for block-prediction runs).
	SimOptions string
	// Machine is the canonical rendering of the timing machine config
	// (pipeline.Config.Canonical); "" for accuracy cells.
	Machine string
	// Code names the code that computes the cell: the experiments
	// package's generated source digest and the Go toolchain version.
	Code string
	// Trace is a recorded stream's content digest
	// (trace.Recording.Digest).
	//
	// Deprecated: the experiments package never sets it; Code, Bench,
	// Seed and Insts name the stream. Only perfbench/layers still sets
	// it, and the next benchmark change retargets that layer and then
	// deletes the field.
	Trace string
}

// Canonical returns the key's canonical string form — the content address
// everything else derives from. Built field by field;
// TestCanonicalKeyCoverage checks that every field reaches it.
func (k Key) Canonical() string {
	var b strings.Builder
	fmt.Fprintf(&b, "family=%s|kind=%s|org=%s|budget=%d|bench=%s|seed=%d|insts=%d|warmup=%d|sim=%s|machine=%s|code=%s|trace=%s",
		k.Family, k.Kind, k.Org, k.Budget, k.Bench, k.Seed, k.Insts, k.Warmup, k.SimOptions, k.Machine, k.Code, k.Trace)
	return b.String()
}

// hash returns the content address of the key: hex SHA-256 of Canonical.
func (k Key) hash() string {
	sum := sha256.Sum256([]byte(k.Canonical()))
	return hex.EncodeToString(sum[:])
}

// Record is one stored cell: its full key (self-describing — load
// verifies the stored key against the requested one) and exactly one
// result payload matching Family. JSON round-trips both payloads exactly:
// Go encodes float64 at shortest-round-trip precision, so a loaded result
// is bit-identical to the computed one.
type Record struct {
	Key      Key
	Timing   *pipeline.Result `json:",omitempty"`
	Accuracy *funcsim.Result  `json:",omitempty"`
}

// Stats counts the store's traffic. Hits are cells served from disk;
// Misses are cells computed because no file existed; Invalidations are
// cells recomputed because a file existed but failed validation
// (truncated, corrupted, wrong version, key mismatch) — those are
// rewritten. WriteErrors counts failed writes (the result is still
// returned; the store just stays cold there).
type Stats struct {
	Hits          int64
	Misses        int64
	Invalidations int64
	Writes        int64
	WriteErrors   int64
}

// Store is a concurrency-safe, disk-backed cell store. It keeps nothing
// in memory but its traffic counters: a plan collapses its duplicate cells
// before asking it anything, so every Get is a genuine disk question.
type Store struct {
	dir   string
	mu    sync.Mutex
	stats Stats // guarded by mu
}

// Open returns a store rooted at dir, creating it if needed.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: opening %s: %w", dir, err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the store's traffic counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Get probes the store for key without computing anything on a miss: the
// read half of a cell's two-phase flow (probe, simulate what is cold, Put
// it back). It counts a Hit when the cell is served, a Miss when no file
// exists, and an Invalidation when a file exists but fails validation.
func (s *Store) Get(key Key) (Record, bool) {
	return s.load(key, key.Canonical())
}

// Put writes rec back under key, counting Writes and WriteErrors. rec.Key
// must equal key and rec must carry the payload key.Family names; a record
// that does not is written but never served (Get treats it as invalid).
func (s *Store) Put(key Key, rec Record) {
	s.write(key, rec)
}

// cellMagic is the file format's self-describing version tag. Bump it and
// every existing entry becomes a counted invalidation on next read — the
// format itself is part of the cell identity.
const cellMagic = "BPCELL1"

// load reads and validates key's cell file. It returns ok=false — never an
// error — on any defect, counting a miss (absent file) or an invalidation
// (present but invalid) as it goes.
func (s *Store) load(key Key, canonical string) (Record, bool) {
	raw, err := os.ReadFile(s.path(key))
	if err != nil {
		s.count(func(st *Stats) { st.Misses++ })
		return Record{}, false
	}
	rec, ok := decodeCell(raw, canonical)
	if !ok {
		s.count(func(st *Stats) { st.Invalidations++ })
		return Record{}, false
	}
	s.count(func(st *Stats) { st.Hits++ })
	return rec, true
}

// decodeCell validates one cell file against the requested canonical key:
// header shape, version, body length (truncation), body digest
// (corruption), JSON shape, stored-key identity, and a payload matching
// the key's family.
func decodeCell(raw []byte, canonical string) (Record, bool) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return Record{}, false
	}
	var magic, digest string
	var bodyLen int
	if n, err := fmt.Sscanf(string(raw[:nl]), "%s %s %d", &magic, &digest, &bodyLen); n != 3 || err != nil {
		return Record{}, false
	}
	if magic != cellMagic {
		return Record{}, false
	}
	body := raw[nl+1:]
	if len(body) != bodyLen {
		return Record{}, false
	}
	sum := sha256.Sum256(body)
	if hex.EncodeToString(sum[:]) != digest {
		return Record{}, false
	}
	var rec Record
	if err := json.Unmarshal(body, &rec); err != nil {
		return Record{}, false
	}
	if rec.Key.Canonical() != canonical || !rec.payloadMatchesFamily() {
		return Record{}, false
	}
	return rec, true
}

// payloadMatchesFamily reports whether r carries exactly one payload, the
// one its Key.Family names.
func (r Record) payloadMatchesFamily() bool {
	switch r.Key.Family {
	case "accuracy":
		return r.Accuracy != nil && r.Timing == nil
	case "timing":
		return r.Timing != nil && r.Accuracy == nil
	}
	return false
}

// write stores rec under key's content address: header with a body digest,
// then the JSON body, written to a temp file and renamed so readers (this
// process or another) never see a half-written cell. Failures are counted
// and swallowed — an unwritable store is a cold store, not a broken run.
func (s *Store) write(key Key, rec Record) {
	body, err := json.Marshal(rec)
	if err != nil {
		s.count(func(st *Stats) { st.WriteErrors++ })
		return
	}
	sum := sha256.Sum256(body)
	path := s.path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		s.count(func(st *Stats) { st.WriteErrors++ })
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".cell-*")
	if err != nil {
		s.count(func(st *Stats) { st.WriteErrors++ })
		return
	}
	_, werr := fmt.Fprintf(tmp, "%s %s %d\n", cellMagic, hex.EncodeToString(sum[:]), len(body))
	if werr == nil {
		_, werr = tmp.Write(body)
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		s.count(func(st *Stats) { st.WriteErrors++ })
		return
	}
	s.count(func(st *Stats) { st.Writes++ })
}

// path returns key's cell file path, <dir>/<code>/<h[:2]>/<h>.cell: code
// is the first 12 hex digits of SHA-256(key.Code), so every cell one
// build computed sits under one directory, removable whole once that
// build's code is stale; h is the key's content hash, sharded by its
// first byte so no directory grows unboundedly.
func (s *Store) path(key Key) string {
	code := sha256.Sum256([]byte(key.Code))
	h := key.hash()
	return filepath.Join(s.dir, hex.EncodeToString(code[:6]), h[:2], h+".cell")
}

// count applies one counter update under the store lock.
func (s *Store) count(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}
