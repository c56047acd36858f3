package resultstore

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
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
		Trace:   "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef",
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
		SimOptions: "blocks.fw8.bb4", Machine: "", Trace: "aa55",
	}
	const want = "family=accuracy|kind=bimode|org=lag64|budget=2048|bench=164.gzip|seed=7|insts=150000|warmup=30000|sim=blocks.fw8.bb4|machine=|trace=aa55"
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

// TestFloatRoundTrip proves the JSON layer is bit-exact for the float64
// fields results carry: Go marshals shortest-round-trip representations, so
// a loaded record equals the stored one to the last bit.
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
	path := s.path(key)
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
	dst := s1.path(victim)
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

// TestMismatchedFamilyPayload rejects validly framed records whose payload
// is not exactly the one their family names: no payload at all, and a
// timing key carrying an accuracy payload.
func TestMismatchedFamilyPayload(t *testing.T) {
	for _, tc := range []struct {
		name string
		rec  Record
	}{
		{"no-payload", Record{Key: testKey("164.gzip")}},
		{"wrong-family", Record{Key: testKey("164.gzip"), Accuracy: &funcsim.Result{Predictor: "gshare", Insts: 300_000}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			corruptAndRecover(t, func(t *testing.T, path string) {
				// Re-frame the record with a valid digest: the decode layer
				// must still reject it.
				s := &Store{dir: filepath.Dir(filepath.Dir(path))}
				s.write(tc.rec.Key, tc.rec)
			})
		})
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

// TestShardedLayout pins the two-level fan-out so a store directory never
// collapses into one flat dir of thousands of files.
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
	if len(parts) != 2 || len(parts[0]) != 2 || !strings.HasSuffix(parts[1], ".cell") {
		t.Fatalf("unexpected cell layout %q, want <2-hex>/<hash>.cell", rel)
	}
}
