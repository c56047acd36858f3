package resultstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"branchsim/internal/funcsim"
	"branchsim/internal/pipeline"
)

func testKey(bench string) Key {
	return Key{
		Family:  "timing",
		Kind:    "gshare",
		Org:     "ideal",
		Budget:  8192,
		Bench:   bench,
		Seed:    1,
		Insts:   400_000,
		Warmup:  100_000,
		Machine: "{FetchWidth:3 ...}", // stand-in; real callers pass Config.Canonical
		Code:    "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef go1.24.0",
	}
}

func testRecord(key Key) Record {
	return Record{
		Key: key,
		Timing: &pipeline.Result{
			Workload:     key.Bench,
			Predictor:    "gshare",
			Insts:        300_000,
			Cycles:       123_457,
			Branches:     40_001,
			Mispredicts:  2_173,
			OverrideRate: 0.012345678901234567,
			BTBMissRate:  0.0625,
			L1IMissRate:  0.001953125,
			L1DMissRate:  0.0371,
			L2MissRate:   0.25,
		},
	}
}

// getOrPut is the cell flow every store caller runs: Get, and on a miss
// compute the record and Put it back.
func getOrPut(s *Store, key Key, compute func() Record) Record {
	if rec, ok := s.Get(key); ok {
		return rec
	}
	rec := compute()
	s.Put(key, rec)
	return rec
}

// TestCanonicalGolden pins the canonical key string: the content address of
// every stored cell. Changing it silently would orphan every existing store
// entry, so it must be a deliberate, visible act.
func TestCanonicalGolden(t *testing.T) {
	k := Key{
		Family: "accuracy", Kind: "bimode", Org: "lag64", Budget: 2048,
		Bench: "164.gzip", Seed: 7, Insts: 150_000, Warmup: 30_000,
		SimOptions: "blocks.fw8.bb4", Machine: "", Code: "c0de go1.24.0", Trace: "aa55",
	}
	const want = "family=accuracy|kind=bimode|org=lag64|budget=2048|bench=164.gzip|seed=7|insts=150000|warmup=30000|sim=blocks.fw8.bb4|machine=|code=c0de go1.24.0|trace=aa55"
	if got := k.Canonical(); got != want {
		t.Fatalf("canonical key drifted:\n got %q\nwant %q", got, want)
	}
}

// TestColdThenWarm proves the fundamental contract: a cold cell computes and
// writes; a second store over the same directory — a fresh process, as far as
// the store can tell — serves the identical record without computing.
func TestColdThenWarm(t *testing.T) {
	dir := t.TempDir()
	key := testKey("164.gzip")
	want := testRecord(key)

	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var computes atomic.Int64
	got := getOrPut(s1, key, func() Record { computes.Add(1); return want })
	if computes.Load() != 1 {
		t.Fatalf("cold cell computed %d times, want 1", computes.Load())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cold lookup returned %+v, want %+v", got, want)
	}
	if st := s1.Stats(); st.Misses != 1 || st.Writes != 1 || st.Hits != 0 {
		t.Fatalf("cold stats = %+v, want 1 miss, 1 write", st)
	}

	// Same store: the written cell serves, no second compute.
	getOrPut(s1, key, func() Record { computes.Add(1); return want })
	if computes.Load() != 1 {
		t.Fatal("warm in-process lookup recomputed")
	}

	// Fresh store over the same dir: must load, bit-identical.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got2 := getOrPut(s2, key, func() Record {
		t.Error("warm cross-process lookup recomputed")
		return Record{}
	})
	if !reflect.DeepEqual(got2, want) {
		t.Fatalf("warm lookup returned %+v, want %+v", got2, want)
	}
	if st := s2.Stats(); st.Hits != 1 || st.Misses != 0 || st.Invalidations != 0 {
		t.Fatalf("warm stats = %+v, want 1 hit", st)
	}
}

// TestFloatRoundTrip proves the codec is bit-exact for the float64
// fields results carry, values with no short decimal form included: a
// float is stored as its raw bits, so a loaded record equals the stored
// one to the last bit.
func TestFloatRoundTrip(t *testing.T) {
	dir := t.TempDir()
	key := testKey("175.vpr")
	want := testRecord(key)
	want.Timing.L2MissRate = 0.1 + 0.2 // 0.30000000000000004: the classic non-representable sum
	want.Timing.OverrideRate = 1.0 / 3.0

	s1, _ := Open(dir)
	getOrPut(s1, key, func() Record { return want })
	s2, _ := Open(dir)
	got := getOrPut(s2, key, func() Record { t.Fatal("recompute"); return Record{} })
	if got.Timing.L2MissRate != want.Timing.L2MissRate || got.Timing.OverrideRate != want.Timing.OverrideRate {
		t.Fatalf("float drift through store: %v/%v vs %v/%v",
			got.Timing.L2MissRate, got.Timing.OverrideRate,
			want.Timing.L2MissRate, want.Timing.OverrideRate)
	}
}

// TestAccuracyFamily round-trips the funcsim payload, including a nil
// ClassRates map (the experiment-path shape).
func TestAccuracyFamily(t *testing.T) {
	dir := t.TempDir()
	key := testKey("181.mcf")
	key.Family = "accuracy"
	key.Machine = ""
	want := Record{Key: key, Accuracy: &funcsim.Result{
		Predictor: "bimode", Workload: "181.mcf", Insts: 150_000,
		Branches: 20_000, Mispredicts: 1_111, TakenRate: 0.625, PredSizeByte: 2048,
	}}
	s1, _ := Open(dir)
	getOrPut(s1, key, func() Record { return want })
	s2, _ := Open(dir)
	got := getOrPut(s2, key, func() Record { t.Fatal("recompute"); return Record{} })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("accuracy record drifted: %+v vs %+v", got, want)
	}
}

// cellFile locates the single .cell file the store wrote for key.
func cellFile(t *testing.T, s *Store, key Key) string {
	t.Helper()
	path := s.keyPath(key)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("expected cell file at %s: %v", path, err)
	}
	return path
}

// corruptAndRecover writes a store entry, applies corrupt to the cell file,
// and asserts a fresh store treats it as an invalidation: recompute, serve
// the fresh record, and rewrite a now-valid entry.
func corruptAndRecover(t *testing.T, corrupt func(t *testing.T, path string)) {
	t.Helper()
	dir := t.TempDir()
	key := testKey("164.gzip")
	want := testRecord(key)
	s1, _ := Open(dir)
	getOrPut(s1, key, func() Record { return want })
	corrupt(t, cellFile(t, s1, key))

	s2, _ := Open(dir)
	var computes atomic.Int64
	got := getOrPut(s2, key, func() Record { computes.Add(1); return want })
	if computes.Load() != 1 {
		t.Fatalf("invalid cell computed %d times, want 1", computes.Load())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered record = %+v, want %+v", got, want)
	}
	if st := s2.Stats(); st.Invalidations != 1 || st.Writes != 1 || st.Hits != 0 {
		t.Fatalf("recovery stats = %+v, want 1 invalidation + 1 write", st)
	}

	// The rewrite must have restored a fully valid entry.
	s3, _ := Open(dir)
	getOrPut(s3, key, func() Record { t.Error("rewritten cell still invalid"); return Record{} })
	if st := s3.Stats(); st.Hits != 1 {
		t.Fatalf("post-rewrite stats = %+v, want 1 hit", st)
	}
}

func TestTruncatedCell(t *testing.T) {
	corruptAndRecover(t, func(t *testing.T, path string) {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

func TestCorruptedBodyCell(t *testing.T) {
	corruptAndRecover(t, func(t *testing.T, path string) {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)-2] ^= 0x01 // flip one bit in the JSON body
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

func TestWrongVersionCell(t *testing.T) {
	corruptAndRecover(t, func(t *testing.T, path string) {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		text := strings.Replace(string(raw), cellMagic, "BPCELL0", 1)
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

func TestEmptyCell(t *testing.T) {
	corruptAndRecover(t, func(t *testing.T, path string) {
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

// TestKeyMismatchCell plants a validly framed record under the wrong content
// address (a hash collision could only arise from a bug or tampering); the
// stored-key check must reject it rather than serve another cell's result.
func TestKeyMismatchCell(t *testing.T) {
	dir := t.TempDir()
	other := testKey("181.mcf")
	victim := testKey("164.gzip")
	s1, _ := Open(dir)
	getOrPut(s1, other, func() Record { return testRecord(other) })
	src := cellFile(t, s1, other)
	dst := s1.keyPath(victim)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, _ := Open(dir)
	want := testRecord(victim)
	got := getOrPut(s2, victim, func() Record { return want })
	if got.Timing.Workload != "164.gzip" {
		t.Fatalf("served another cell's record: %+v", got)
	}
	if st := s2.Stats(); st.Invalidations != 1 {
		t.Fatalf("stats = %+v, want 1 invalidation", st)
	}
}

// TestMismatchedFamilyPayload rejects validly framed cells whose payload
// is not exactly the one their family names: no payload at all, and a
// timing key carrying an accuracy payload. A record whose own Key is not
// the key it is put under is rejected too: its key line names its own key.
func TestMismatchedFamilyPayload(t *testing.T) {
	for _, tc := range []struct {
		name string
		rec  Record
	}{
		{"no-payload", Record{Key: testKey("164.gzip")}},
		{"wrong-family", Record{Key: testKey("164.gzip"), Accuracy: &funcsim.Result{Predictor: "gshare", Insts: 300_000}}},
		{"foreign-key", testRecord(testKey("181.mcf"))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			corruptAndRecover(t, func(t *testing.T, path string) {
				// Re-frame the record with a valid digest: the decode layer
				// must still reject it. The store root is three levels above
				// a cell file: <dir>/<code>/<h[:2]>/<h>.cell.
				s, err := Open(filepath.Dir(filepath.Dir(filepath.Dir(path))))
				if err != nil {
					t.Fatal(err)
				}
				s.Put(testKey("164.gzip"), tc.rec)
			})
		})
	}
}

// TestOldFormatCell plants the BPCELL2 encoding of the very record asked
// for, its payload as JSON behind a BPCELL2 header: no BPCELL2 reader is
// kept, so the cell counts as an invalidation and is rewritten.
func TestOldFormatCell(t *testing.T) {
	corruptAndRecover(t, func(t *testing.T, path string) {
		if err := os.WriteFile(path, bpcell2(t, testRecord(testKey("164.gzip"))), 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

// bpcell2 renders rec as the BPCELL2 format wrote it: the key line and
// the JSON of the record minus its key, behind a BPCELL2 header.
func bpcell2(t testing.TB, rec Record) []byte {
	t.Helper()
	js, err := json.Marshal(struct {
		Timing   *pipeline.Result `json:",omitempty"`
		Accuracy *funcsim.Result  `json:",omitempty"`
	}{rec.Timing, rec.Accuracy})
	if err != nil {
		t.Fatal(err)
	}
	return frameCell("BPCELL2", append([]byte(rec.Key.Canonical()+"\n"), js...))
}

// TestLargeCell round-trips a cell larger than a read buffer, so Get
// grows its buffer and reads on; a cell of the usual size read after it
// from the same pool must still decode.
func TestLargeCell(t *testing.T) {
	dir := t.TempDir()
	big := testKey("164.gzip")
	big.Machine = strings.Repeat("{FetchWidth:3} ", 1000)
	small := testKey("175.vpr")
	s1, _ := Open(dir)
	getOrPut(s1, big, func() Record { return testRecord(big) })
	getOrPut(s1, small, func() Record { return testRecord(small) })
	s2, _ := Open(dir)
	for _, key := range []Key{big, small, big} {
		got := getOrPut(s2, key, func() Record { t.Fatalf("%s recomputed", key.Bench); return Record{} })
		if !reflect.DeepEqual(got, testRecord(key)) {
			t.Fatalf("%s record drifted: %+v", key.Bench, got)
		}
	}
}

// TestUnwritableStoreDegrades proves write failures are contained: results
// still flow, errors are counted, nothing panics.
func TestUnwritableStoreDegrades(t *testing.T) {
	if os.Getuid() == 0 {
		t.Skip("root ignores directory permissions")
	}
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	key := testKey("164.gzip")
	want := testRecord(key)
	got := getOrPut(s, key, func() Record { return want })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("unwritable store corrupted result: %+v", got)
	}
	if st := s.Stats(); st.WriteErrors != 1 || st.Writes != 0 {
		t.Fatalf("stats = %+v, want 1 write error", st)
	}
}

// TestShardedLayout pins the layout: one directory per code digest, then
// a two-level fan-out so a store directory never collapses into one flat
// dir of thousands of files.
func TestShardedLayout(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	key := testKey("164.gzip")
	getOrPut(s, key, func() Record { return testRecord(key) })
	rel, err := filepath.Rel(dir, cellFile(t, s, key))
	if err != nil {
		t.Fatal(err)
	}
	parts := strings.Split(rel, string(filepath.Separator))
	if len(parts) != 3 || len(parts[0]) != 12 || len(parts[1]) != 2 ||
		!strings.HasPrefix(parts[2], parts[1]) || !strings.HasSuffix(parts[2], ".cell") {
		t.Fatalf("unexpected cell layout %q, want <12-hex code>/<2-hex>/<hash>.cell", rel)
	}
}

// TestCodeSiblingDirectory pins what the per-code layout is for: a key
// that differs only in Code lands in a sibling code directory, so removing
// one build's directory drops its cells and leaves every other build's.
func TestCodeSiblingDirectory(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	a := testKey("164.gzip")
	b := a
	b.Code = a.Code + "+edit"
	getOrPut(s, a, func() Record { return testRecord(a) })
	getOrPut(s, b, func() Record { return testRecord(b) })
	codeDir := func(k Key) string {
		rel, err := filepath.Rel(dir, cellFile(t, s, k))
		if err != nil {
			t.Fatal(err)
		}
		return strings.Split(rel, string(filepath.Separator))[0]
	}
	da, db := codeDir(a), codeDir(b)
	if da == db {
		t.Fatalf("keys differing only in Code share code directory %s", da)
	}
	if err := os.RemoveAll(filepath.Join(dir, da)); err != nil {
		t.Fatal(err)
	}
	s2, _ := Open(dir)
	if _, ok := s2.Get(a); ok {
		t.Fatal("cell served after its code directory was removed")
	}
	if _, ok := s2.Get(b); !ok {
		t.Fatal("removing one code directory dropped the sibling's cell")
	}
}

// TestConcurrentGetPut drives one store from several goroutines at once:
// keys of two builds' Codes, so the memoised code directory flips while
// others read it, and cells of two sizes, so the pooled read buffers grow
// under concurrent use. Every served record must be its own key's, and
// the lock-free counters must add up exactly once the goroutines join:
// one Hit, Miss or Invalidation per Get, one Write per Put.
func TestConcurrentGetPut(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var keys []Key
	for i := range 16 {
		key := testKey(fmt.Sprintf("bench.%d", i))
		if i%2 == 1 {
			key.Code += "+edit"
		}
		if i%4 == 0 {
			key.Machine = strings.Repeat("{FetchWidth:3} ", 400)
		}
		keys = append(keys, key)
	}
	const goroutines, rounds = 4, 20
	puts := make([]int64, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range rounds {
				key := keys[(g*5+round)%len(keys)]
				got, ok := s.Get(key)
				if !ok {
					got = testRecord(key)
					s.Put(key, got)
					puts[g]++
				}
				if !reflect.DeepEqual(got, testRecord(key)) {
					t.Errorf("%s served %+v", key.Bench, got)
				}
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.Invalidations != 0 || st.WriteErrors != 0 {
		t.Fatalf("stats = %+v, want no invalidations or write errors", st)
	}
	if gets := st.Hits + st.Misses + st.Invalidations; gets != goroutines*rounds {
		t.Errorf("stats = %+v: Hits+Misses+Invalidations = %d, want %d Gets", st, gets, goroutines*rounds)
	}
	var wantWrites int64
	for _, n := range puts {
		wantWrites += n
	}
	if st.Writes != wantWrites {
		t.Errorf("stats = %+v: Writes = %d, want %d Puts", st, st.Writes, wantWrites)
	}
}

// keyPath returns key's cell file path as Get and Put compute it.
func (s *Store) keyPath(key Key) string {
	return s.path(key.Code, []byte(key.Canonical()))
}

// benchCells returns 256 keys and records, half of each family, with
// results shaped like the grid's.
func benchCells() ([]Key, []Record) {
	var keys []Key
	var recs []Record
	for i := range 256 {
		key := testKey(fmt.Sprintf("bench.%d", i))
		rec := testRecord(key)
		if i%2 == 0 {
			key = accuracyKey(key.Bench)
			rec = Record{Key: key, Accuracy: &funcsim.Result{
				Predictor: "bimode", Workload: key.Bench, Insts: 150_000, Branches: 20_000, Mispredicts: 1_111, TakenRate: 0.625,
			}}
		}
		keys, recs = append(keys, key), append(recs, rec)
	}
	return keys, recs
}

// BenchmarkGet times Store.Get on hits over a filled store of both
// families, the warm rerun's only store traffic, and reports it per cell.
func BenchmarkGet(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	keys, recs := benchCells()
	for i, key := range keys {
		s.Put(key, recs[i])
	}
	b.ResetTimer()
	for range b.N {
		for _, key := range keys {
			if _, ok := s.Get(key); !ok {
				b.Fatalf("cell %s not served", key.Bench)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(keys)), "us/cell")
}

// BenchmarkPut times Store.Put of both families, a cold run's store
// traffic: encode, temp file, write and rename. Every round after the
// first replaces the cells the one before wrote.
func BenchmarkPut(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	keys, recs := benchCells()
	b.ResetTimer()
	for range b.N {
		for i, key := range keys {
			s.Put(key, recs[i])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(keys)), "us/cell")
	if st := s.Stats(); st.WriteErrors != 0 {
		b.Fatalf("stats = %+v, want no write errors", st)
	}
}
