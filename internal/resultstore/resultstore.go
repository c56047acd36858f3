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
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"

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
	return string(k.appendCanonical(nil))
}

// appendCanonical appends Canonical's bytes to b. Get and Put build the
// form once, into a buffer on their own stack, and use those bytes for
// the path, the key line and the comparison on read.
func (k Key) appendCanonical(b []byte) []byte {
	b = append(b, "family="...)
	b = append(b, k.Family...)
	b = append(b, "|kind="...)
	b = append(b, k.Kind...)
	b = append(b, "|org="...)
	b = append(b, k.Org...)
	b = append(b, "|budget="...)
	b = strconv.AppendInt(b, int64(k.Budget), 10)
	b = append(b, "|bench="...)
	b = append(b, k.Bench...)
	b = append(b, "|seed="...)
	b = strconv.AppendUint(b, k.Seed, 10)
	b = append(b, "|insts="...)
	b = strconv.AppendInt(b, k.Insts, 10)
	b = append(b, "|warmup="...)
	b = strconv.AppendInt(b, k.Warmup, 10)
	b = append(b, "|sim="...)
	b = append(b, k.SimOptions...)
	b = append(b, "|machine="...)
	b = append(b, k.Machine...)
	b = append(b, "|code="...)
	b = append(b, k.Code...)
	b = append(b, "|trace="...)
	b = append(b, k.Trace...)
	return b
}

// keyBufLen sizes the stack buffer Get and Put render a key into: room
// for a timing key's machine rendering, so no real key spills to the heap.
const keyBufLen = 1024

// Record is one stored cell: its full key and exactly one result payload
// matching Family. A cell file stores the key as its canonical string and
// the payload in the store's fixed-field encoding (cellMagic); Get
// returns the requested key beside the payload it decoded. Every field
// round-trips exactly: floats are stored as their raw IEEE 754 bits, so a
// loaded result is bit-identical to the computed one, -0 and NaN
// included. A funcsim.Result with ClassRates set is not stored: Put
// counts it as a write error.
type Record struct {
	Key      Key
	Timing   *pipeline.Result
	Accuracy *funcsim.Result
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
// in memory but its traffic counters, one atomic each, and the directory
// name of the last Key.Code it saw: a plan collapses its duplicate cells
// before asking it anything, so every Get is a genuine disk question.
type Store struct {
	dir     string
	codeDir atomic.Pointer[codeDir]

	hits, misses, invalidations, writes, writeErrors atomic.Int64
}

// codeDir pairs a Key.Code with its cell directory under the store root,
// so the cells of one build hash their code once, not once per cell.
type codeDir struct {
	code, dir string
}

// Open returns a store rooted at dir, creating it if needed.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, &os.PathError{Op: "resultstore: open", Path: dir, Err: err}
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns the store's traffic counters. Each is loaded on its own,
// so a snapshot taken while cells are in flight need not add up; one
// taken after they complete is exact.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		Invalidations: s.invalidations.Load(),
		Writes:        s.writes.Load(),
		WriteErrors:   s.writeErrors.Load(),
	}
}

// Get probes the store for key without computing anything on a miss: the
// read half of a cell's two-phase flow (probe, simulate what is cold, Put
// it back). It counts a Hit when the cell is served, a Miss when no file
// exists, and an Invalidation when a file exists but fails validation.
// A cell costs one rendering of key, one hash of it, one open, read and
// close of the file, and one decode of the payload.
func (s *Store) Get(key Key) (Record, bool) {
	var kb [keyBufLen]byte
	canonical := key.appendCanonical(kb[:0])
	bp := readBufs.Get().(*[]byte)
	defer readBufs.Put(bp)
	raw, err := readCell(s.path(key.Code, canonical), bp)
	if err != nil {
		s.misses.Add(1)
		return Record{}, false
	}
	rec, ok := decodeCell(raw, canonical, key.Family)
	if !ok {
		s.invalidations.Add(1)
		return Record{}, false
	}
	rec.Key = key
	s.hits.Add(1)
	return rec, true
}

// Put writes rec back under key, counting Writes and WriteErrors. rec.Key
// must equal key and rec must carry the payload key.Family names; a record
// that does not is written but never served (Get treats it as invalid).
// A record the encoding cannot store exactly (ClassRates set) is not
// written and counts as a write error.
func (s *Store) Put(key Key, rec Record) {
	var kb [keyBufLen]byte
	canonical := key.appendCanonical(kb[:0])
	keyLine := canonical
	if rec.Key != key {
		keyLine = rec.Key.appendCanonical(nil)
	}
	file, ok := encodeCell(keyLine, rec)
	if !ok {
		s.writeErrors.Add(1)
		return
	}
	s.write(s.path(key.Code, canonical), file)
}

// cellMagic is the file format's self-describing version tag. Bump it and
// every existing entry becomes a counted invalidation on next read — the
// format itself is part of the cell identity.
//
// A BPCELL3 file is a header line, "BPCELL3 <digest> <len>\n", then a
// body of len bytes whose SHA-256 is the lower-case hex digest: the
// body is the key's canonical form, a newline, and the payload. The
// payload is each result the record carries, timing first: a one-byte
// family tag (timingTag, accuracyTag), then the result's fields in the
// order timingFields or accuracyFields visits them. Every field is one
// little-endian 64-bit word — an integer as its two's complement, a
// float as math.Float64bits — except a string, which is a word holding
// its length and then its bytes.
const cellMagic = "BPCELL3"

// The payload's family tags.
const (
	timingTag   = 'T'
	accuracyTag = 'A'
)

// readBufs holds the buffers Get reads cells into. A cell is a few
// hundred bytes; a buffer grows only for a cell larger than it and
// returns to the pool at that size.
var readBufs = sync.Pool{New: func() any {
	b := make([]byte, 4096)
	return &b
}}

// readCell reads the file at path whole into *buf and returns its bytes:
// one open, one read and one close, straight on the system calls, for
// any file shorter than the buffer. A read that fills the buffer grows it
// and reads on. A short read ends the file; should a file system ever
// return one early, the length check in decodeCell turns it into an
// invalidation, never a wrong cell.
func readCell(path string, buf *[]byte) ([]byte, error) {
	fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	if err != nil {
		return nil, err
	}
	defer syscall.Close(fd)
	b, n := *buf, 0
	for {
		m, err := syscall.Read(fd, b[n:])
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			return nil, err
		}
		if n += m; n < len(b) {
			return b[:n], nil
		}
		b = append(b, make([]byte, len(b))...)
		*buf = b
	}
}

// decodeCell validates one cell file against the requested key, given as
// its canonical bytes and its family: header shape and version, body
// length (truncation), body digest (corruption), the key line, and a
// payload carrying exactly the family's result and nothing after it.
func decodeCell(raw, canonical []byte, family string) (Record, bool) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return Record{}, false
	}
	digest, bodyLen, ok := parseHeader(raw[:nl])
	body := raw[nl+1:]
	if !ok || len(body) != bodyLen {
		return Record{}, false
	}
	var sum [2 * sha256.Size]byte
	bodySum := sha256.Sum256(body)
	if hex.Encode(sum[:], bodySum[:]); !bytes.Equal(sum[:], digest) {
		return Record{}, false
	}
	if len(body) <= len(canonical) || !bytes.Equal(body[:len(canonical)], canonical) || body[len(canonical)] != '\n' {
		return Record{}, false
	}
	return decodePayload(body[len(canonical)+1:], family)
}

// decodePayload parses a payload holding exactly one result, family's.
// A missing tag or field, another family's tag, or bytes after the last
// field reject the cell.
func decodePayload(p []byte, family string) (Record, bool) {
	if len(p) == 0 {
		return Record{}, false
	}
	r := cellReader{b: p[1:], ok: true}
	var rec Record
	switch {
	case p[0] == timingTag && family == "timing":
		rec.Timing = new(pipeline.Result)
		timingFields(&r, rec.Timing)
	case p[0] == accuracyTag && family == "accuracy":
		rec.Accuracy = new(funcsim.Result)
		accuracyFields(&r, rec.Accuracy)
	default:
		return Record{}, false
	}
	if !r.ok || len(r.b) != 0 {
		return Record{}, false
	}
	return rec, true
}

// parseHeader parses a header line without its newline, strictly: the
// magic, one space, a 64-byte digest field, one space, and a body length
// in decimal with no sign and no leading zero. decodeCell compares the
// digest field with the body's lower-case hex SHA-256 byte for byte.
func parseHeader(h []byte) (digest []byte, bodyLen int, ok bool) {
	const hexLen = 2 * sha256.Size
	rest, found := bytes.CutPrefix(h, []byte(cellMagic+" "))
	if !found || len(rest) < hexLen+2 || rest[hexLen] != ' ' {
		return nil, 0, false
	}
	num := rest[hexLen+1:]
	if len(num) > 9 || num[0] == '0' && len(num) > 1 {
		return nil, 0, false
	}
	for _, c := range num {
		if c < '0' || c > '9' {
			return nil, 0, false
		}
		bodyLen = bodyLen*10 + int(c-'0')
	}
	return rest[:hexLen], bodyLen, true
}

// encodeCell renders a whole cell file: the header, then the body of
// keyLine, a newline and rec's payload. It refuses a record whose
// ClassRates is set, which the encoding does not store.
func encodeCell(keyLine []byte, rec Record) ([]byte, bool) {
	w := cellWriter{b: make([]byte, 0, len(keyLine)+256)}
	w.b = append(append(w.b, keyLine...), '\n')
	if rec.Timing != nil {
		w.b = append(w.b, timingTag)
		timingFields(&w, rec.Timing)
	}
	if r := rec.Accuracy; r != nil {
		if r.ClassRates != nil {
			return nil, false
		}
		w.b = append(w.b, accuracyTag)
		accuracyFields(&w, r)
	}
	body := w.b
	sum := sha256.Sum256(body)
	file := make([]byte, 0, len(cellMagic)+2*sha256.Size+len(body)+16)
	file = append(file, cellMagic+" "...)
	file = hex.AppendEncode(file, sum[:])
	file = append(file, ' ')
	file = strconv.AppendInt(file, int64(len(body)), 10)
	file = append(file, '\n')
	return append(file, body...), true
}

// A fieldCodec visits a result's fields in their stored order: cellWriter
// appends each to a payload, cellReader parses each in place. Each
// family's order is written once, in timingFields and accuracyFields, so
// the writer and the reader cannot disagree on it;
// TestPayloadFieldCoverage fails when a result gains a field neither
// visits.
type fieldCodec interface {
	str(*string)
	i64(*int64)
	u64(*uint64)
	f64(*float64)
	// num is a Go int, stored as an int64.
	num(*int)
}

// timingFields visits every field of a pipeline.Result.
func timingFields(c fieldCodec, r *pipeline.Result) {
	c.str(&r.Workload)
	c.str(&r.Predictor)
	c.i64(&r.Insts)
	c.u64(&r.Cycles)
	c.i64(&r.Branches)
	c.i64(&r.Mispredicts)
	c.i64(&r.Overrides)
	c.f64(&r.OverrideRate)
	c.f64(&r.BTBMissRate)
	c.f64(&r.L1IMissRate)
	c.f64(&r.L1DMissRate)
	c.f64(&r.L2MissRate)
	c.u64(&r.FetchStallCycles)
}

// accuracyFields visits every field of a funcsim.Result but ClassRates,
// which encodeCell requires to be nil.
func accuracyFields(c fieldCodec, r *funcsim.Result) {
	c.str(&r.Predictor)
	c.str(&r.Workload)
	c.i64(&r.Insts)
	c.i64(&r.Branches)
	c.i64(&r.Mispredicts)
	c.f64(&r.TakenRate)
	c.num(&r.PredSizeByte)
}

// cellWriter appends the fields it visits to b.
type cellWriter struct{ b []byte }

func (w *cellWriter) u64(p *uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, *p) }
func (w *cellWriter) i64(p *int64)  { w.b = binary.LittleEndian.AppendUint64(w.b, uint64(*p)) }
func (w *cellWriter) num(p *int)    { w.b = binary.LittleEndian.AppendUint64(w.b, uint64(int64(*p))) }
func (w *cellWriter) f64(p *float64) {
	w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(*p))
}

func (w *cellWriter) str(p *string) {
	w.b = binary.LittleEndian.AppendUint64(w.b, uint64(len(*p)))
	w.b = append(w.b, *p...)
}

// cellReader parses the fields it visits off the front of b. ok turns
// false, for good, at the first field b is too short for or an int does
// not fit; the fields after it parse as zero.
type cellReader struct {
	b  []byte
	ok bool
}

// word takes one 64-bit word off b.
func (r *cellReader) word() uint64 {
	if len(r.b) < 8 {
		r.ok, r.b = false, nil
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *cellReader) u64(p *uint64)  { *p = r.word() }
func (r *cellReader) i64(p *int64)   { *p = int64(r.word()) }
func (r *cellReader) f64(p *float64) { *p = math.Float64frombits(r.word()) }

func (r *cellReader) num(p *int) {
	v := int64(r.word())
	if *p = int(v); int64(*p) != v {
		r.ok = false
	}
}

func (r *cellReader) str(p *string) {
	n := r.word()
	if n > uint64(len(r.b)) {
		r.ok, r.b = false, nil
		return
	}
	*p = string(r.b[:n])
	r.b = r.b[n:]
}

// write stores a cell file at path, written to a temp file and renamed so
// readers (this process or another) never see a half-written cell.
// Failures are counted and swallowed — an unwritable store is a cold
// store, not a broken run.
func (s *Store) write(path string, file []byte) {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		s.writeErrors.Add(1)
		return
	}
	tmp, err := os.CreateTemp(dir, ".cell-*")
	if err != nil {
		s.writeErrors.Add(1)
		return
	}
	_, werr := tmp.Write(file)
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		s.writeErrors.Add(1)
		return
	}
	s.writes.Add(1)
}

// path returns the cell file path of a key with the given Code and
// canonical form, <dir>/<code>/<h[:2]>/<h>.cell: code is the first 12 hex
// digits of SHA-256(Code), so every cell one build computed sits under
// one directory, removable whole once that build's code is stale; h is
// the hex SHA-256 of the canonical form, sharded by its first byte so no
// directory grows unboundedly.
func (s *Store) path(code string, canonical []byte) string {
	cd := s.codeDir.Load()
	if cd == nil || cd.code != code {
		sum := sha256.Sum256([]byte(code))
		cd = &codeDir{code: code, dir: filepath.Join(s.dir, hex.EncodeToString(sum[:6]))}
		s.codeDir.Store(cd)
	}
	sum := sha256.Sum256(canonical)
	var pb [pathBufLen]byte
	b := append(append(pb[:0], cd.dir...), filepath.Separator)
	b = hex.AppendEncode(b, sum[:1])
	b = append(b, filepath.Separator)
	b = hex.AppendEncode(b, sum[:])
	return string(append(b, ".cell"...))
}

// pathBufLen sizes the stack buffer path renders a cell's path into: a
// store root of up to a few hundred bytes stays on the stack, and only
// the returned string is allocated.
const pathBufLen = 512
