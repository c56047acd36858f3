package experiments

import (
	"reflect"
	"testing"

	"branchsim/internal/pipeline"
	"branchsim/internal/resultstore"
)

// TestCanonicalKeyCoverage holds the key renderings cells are cached and
// stored under to every field that can tell two cells apart. Changing any
// leaf of pipeline.Config, the cache.Config fields included, must change
// machineString, the Machine component of every timing cell's key; and
// changing any resultstore.Key field must change Key.Canonical, the
// persistent store's content address. The walk is over reflect's field
// list, so a field added to either struct is covered without being named
// here, and a field its key rendering drops fails. Each leaf moves away
// from its value in the canonical config, so the derived FrontEndDepth
// (zero means PipelineDepth/2) moves away from its resolved value; setting
// it to that value must leave the rendering unchanged.
func TestCanonicalKeyCoverage(t *testing.T) {
	base := pipeline.DefaultConfig()
	resolved := reflect.ValueOf(base.Canonical())
	for _, leaf := range leafFields(reflect.TypeOf(base), nil, "") {
		cfg := base
		perturb(t, reflect.ValueOf(&cfg).Elem().FieldByIndex(leaf.index), resolved.FieldByIndex(leaf.index), leaf.name)
		if machineString(cfg) == machineString(base) {
			t.Errorf("pipeline.Config.%s: changing it leaves the machine key unchanged", leaf.name)
		}
	}
	same := base
	same.FrontEndDepth = base.Canonical().FrontEndDepth
	if machineString(same) != machineString(base) {
		t.Errorf("FrontEndDepth %d and its derived default render different machine keys", same.FrontEndDepth)
	}

	key := resultstore.Key{
		Family: "timing", Kind: "perceptron", Org: "override", Budget: 64 << 10,
		Bench: "gcc", Seed: 1, Insts: 1_000_000, Warmup: 250_000,
		Machine: machineString(base), Trace: "00ff",
	}
	for _, leaf := range leafFields(reflect.TypeOf(key), nil, "") {
		k := key
		perturb(t, reflect.ValueOf(&k).Elem().FieldByIndex(leaf.index), reflect.ValueOf(key).FieldByIndex(leaf.index), leaf.name)
		if k.Canonical() == key.Canonical() {
			t.Errorf("resultstore.Key.%s: changing it leaves Canonical unchanged", leaf.name)
		}
	}
}

// leafField is one non-struct field reached from a struct type.
type leafField struct {
	index []int
	name  string
}

// leafFields lists t's non-struct fields, recursing into struct-typed
// fields.
func leafFields(t reflect.Type, prefix []int, name string) []leafField {
	var out []leafField
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		index := append(append([]int(nil), prefix...), i)
		if f.Type.Kind() == reflect.Struct {
			out = append(out, leafFields(f.Type, index, name+f.Name+".")...)
			continue
		}
		out = append(out, leafField{index: index, name: name + f.Name})
	}
	return out
}

// perturb sets v to a value different from from.
func perturb(t *testing.T, v, from reflect.Value, name string) {
	t.Helper()
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(from.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(from.Uint() + 1)
	case reflect.String:
		v.SetString(from.String() + "x")
	case reflect.Bool:
		v.SetBool(!from.Bool())
	default:
		t.Fatalf("%s: no perturbation for a %s field; extend perturb", name, v.Kind())
	}
}
