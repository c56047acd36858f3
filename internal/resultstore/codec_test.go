package resultstore

import (
	"math"
	"reflect"
	"testing"

	"branchsim/internal/funcsim"
	"branchsim/internal/pipeline"
	"branchsim/internal/stats"
)

// accuracyKey is testKey's accuracy-family twin.
func accuracyKey(bench string) Key {
	key := testKey(bench)
	key.Family, key.Machine = "accuracy", ""
	return key
}

// roundTrip puts rec under rec.Key into a fresh store and reads it back
// through a second store over the same directory, as a later process
// would.
func roundTrip(t *testing.T, rec Record) Record {
	t.Helper()
	dir := t.TempDir()
	s1, _ := Open(dir)
	s1.Put(rec.Key, rec)
	if st := s1.Stats(); st.Writes != 1 || st.WriteErrors != 0 {
		t.Fatalf("put stats = %+v, want 1 write", st)
	}
	s2, _ := Open(dir)
	got, ok := s2.Get(rec.Key)
	if !ok {
		t.Fatalf("cell %s not served after Put (stats %+v)", rec.Key.Bench, s2.Stats())
	}
	return got
}

// requireBitEqual fails unless got and want hold the same values field
// by field, floats compared by their bits: -0 is not 0, and a NaN
// equals only a NaN of the same bits.
func requireBitEqual(t *testing.T, got, want any) {
	t.Helper()
	g, w := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for i := range w.NumField() {
		name := w.Type().Field(i).Name
		gf, wf := g.Field(i), w.Field(i)
		if wf.Kind() == reflect.Float64 {
			if math.Float64bits(gf.Float()) != math.Float64bits(wf.Float()) {
				t.Errorf("%s = %v (%#x), want %v (%#x)", name, gf.Float(), math.Float64bits(gf.Float()), wf.Float(), math.Float64bits(wf.Float()))
			}
		} else if !reflect.DeepEqual(gf.Interface(), wf.Interface()) {
			t.Errorf("%s = %#v, want %#v", name, gf.Interface(), wf.Interface())
		}
	}
}

// fillDistinct sets every field of the struct v points to, but the one
// named skip, to a non-zero value no other field holds, and fails on a
// field kind it has no value for.
func fillDistinct(t *testing.T, v any, skip string) {
	t.Helper()
	s := reflect.ValueOf(v).Elem()
	for i := range s.NumField() {
		f, name := s.Field(i), s.Type().Field(i).Name
		if name == skip {
			continue
		}
		switch f.Kind() {
		case reflect.String:
			f.SetString(name + " value")
		case reflect.Int, reflect.Int64:
			f.SetInt(-1000 - int64(i))
		case reflect.Uint64:
			f.SetUint(1<<40 + uint64(i))
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.25)
		default:
			t.Fatalf("%s.%s is a %s: give the store's codec and this test a case for it", s.Type(), name, f.Kind())
		}
	}
}

// TestPayloadFieldCoverage sets every field of both stored results to a
// distinct non-zero value and requires a Put/Get round trip to return
// each: a field added to pipeline.Result or funcsim.Result that
// timingFields or accuracyFields does not visit comes back zero and
// fails here. ClassRates is the one field the codec refuses instead:
// a record that sets it must not be written.
func TestPayloadFieldCoverage(t *testing.T) {
	timing := new(pipeline.Result)
	fillDistinct(t, timing, "")
	got := roundTrip(t, Record{Key: testKey("164.gzip"), Timing: timing})
	requireBitEqual(t, got.Timing, timing)

	accuracy := new(funcsim.Result)
	fillDistinct(t, accuracy, "ClassRates")
	got = roundTrip(t, Record{Key: accuracyKey("164.gzip"), Accuracy: accuracy})
	requireBitEqual(t, got.Accuracy, accuracy)

	accuracy.ClassRates = map[string]*stats.Rate{"cond": {Events: 1, Total: 2}}
	requireRefused(t, Record{Key: accuracyKey("164.gzip"), Accuracy: accuracy})
}

// requireRefused requires Put to refuse rec: a write error, no write,
// and nothing for Get to serve.
func requireRefused(t *testing.T, rec Record) {
	t.Helper()
	s, _ := Open(t.TempDir())
	s.Put(rec.Key, rec)
	if st := s.Stats(); st.WriteErrors != 1 || st.Writes != 0 {
		t.Fatalf("stats = %+v, want the Put refused as 1 write error", st)
	}
	if _, ok := s.Get(rec.Key); ok {
		t.Fatal("a refused record was served")
	}
}

// TestEdgeValueRoundTrip round-trips the values a text or lossy encoding
// would bend: signed zero, infinities, the smallest subnormal, the
// integer extremes, and strings that are empty or hold spaces, newlines,
// a tag byte or invalid UTF-8.
func TestEdgeValueRoundTrip(t *testing.T) {
	negZero := math.Copysign(0, -1)
	timings := []pipeline.Result{
		{Workload: "", Predictor: "", OverrideRate: negZero, BTBMissRate: math.Inf(1), L1IMissRate: math.Inf(-1),
			L1DMissRate: math.SmallestNonzeroFloat64, L2MissRate: -math.SmallestNonzeroFloat64},
		{Workload: "a b\nc", Predictor: "\xff\xfe\x00T", Insts: math.MaxInt64, Cycles: math.MaxUint64,
			Branches: math.MinInt64, Mispredicts: -1, Overrides: math.MinInt64, FetchStallCycles: math.MaxUint64,
			OverrideRate: math.MaxFloat64, BTBMissRate: -math.MaxFloat64},
	}
	for i := range timings {
		want := &timings[i]
		got := roundTrip(t, Record{Key: testKey("164.gzip"), Timing: want})
		requireBitEqual(t, got.Timing, want)
	}
	accuracies := []funcsim.Result{
		{Predictor: "", Workload: "\n", TakenRate: negZero, PredSizeByte: math.MinInt},
		{Predictor: " \xc3\x28 ", Workload: "x\r\ny", Insts: math.MaxInt64, Branches: math.MinInt64,
			Mispredicts: math.MaxInt64, TakenRate: math.Inf(-1), PredSizeByte: math.MaxInt},
	}
	for i := range accuracies {
		want := &accuracies[i]
		got := roundTrip(t, Record{Key: accuracyKey("164.gzip"), Accuracy: want})
		requireBitEqual(t, got.Accuracy, want)
	}
}

// TestNaNRoundTrip stores NaNs — the quiet NaN, a negative one and one
// with payload bits — and requires each back bit for bit: the codec
// stores a float's raw bits, so a NaN is neither refused nor rewritten.
func TestNaNRoundTrip(t *testing.T) {
	nans := []float64{math.NaN(), math.Float64frombits(0xfff8_0000_0000_0000), math.Float64frombits(0x7ff0_0000_0000_0001)}
	want := &pipeline.Result{Workload: "164.gzip", OverrideRate: nans[0], BTBMissRate: nans[1], L2MissRate: nans[2]}
	got := roundTrip(t, Record{Key: testKey("164.gzip"), Timing: want})
	requireBitEqual(t, got.Timing, want)
	acc := &funcsim.Result{Workload: "164.gzip", TakenRate: nans[2]}
	gotAcc := roundTrip(t, Record{Key: accuracyKey("164.gzip"), Accuracy: acc})
	requireBitEqual(t, gotAcc.Accuracy, acc)
}

// TestClassRatesRefused requires Put to refuse any non-nil ClassRates,
// an empty map included: the codec does not store the map, and serving
// the record without it, or a nil map for an empty one, would change it.
func TestClassRatesRefused(t *testing.T) {
	for _, rates := range []map[string]*stats.Rate{{}, {"cond": {Events: 3, Total: 7}, "ret": nil}} {
		requireRefused(t, Record{Key: accuracyKey("181.mcf"), Accuracy: &funcsim.Result{
			Predictor: "bimode", Workload: "181.mcf", Insts: 150_000, ClassRates: rates,
		}})
	}
}
