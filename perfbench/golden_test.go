package main

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func nan() cell { return cell(math.NaN()) }

func oneTable(id, title string, rows, cols []string, values ...[]cell) resultFile {
	return resultFile{Experiments: []experiment{{ID: id, Tables: []table{{Title: title, Rows: rows, Cols: cols, Values: values}}}}}
}

func golden() resultFile {
	return oneTable("figure5", "Figure 5", []string{"16K", "32K"}, []string{"gshare.fast", "perceptron"},
		[]cell{4.25, 3.5}, []cell{4.0, nan()})
}

func TestCompareGoldenAcceptsSuperset(t *testing.T) {
	got := oneTable("figure5", "Figure 5", []string{"8K", "32K", "16K"}, []string{"perceptron", "gshare.fast", "new"},
		[]cell{9, 9, 9}, []cell{nan(), 4.0, 1}, []cell{3.5, 4.25, 2})
	got.Experiments[0].Tables = append(got.Experiments[0].Tables, table{Title: "CPI stack"})
	got.Experiments = append(got.Experiments, experiment{ID: "figure9"})
	if bad := compareGolden(golden(), got); len(bad) != 0 {
		t.Errorf("superset rejected: %v", bad)
	}
}

func TestCompareGoldenExactEquality(t *testing.T) {
	got := golden()
	got.Experiments[0].Tables[0].Values[0][1] = cell(math.Nextafter(3.5, 4))
	bad := compareGolden(golden(), got)
	if len(bad) != 1 || !strings.Contains(bad[0], "[16K, perceptron]") {
		t.Errorf("one-ulp change: got %v, want one mismatch at [16K, perceptron]", bad)
	}
}

func TestCompareGoldenNaN(t *testing.T) {
	for _, c := range []struct {
		golden, got cell
		ok          bool
	}{
		{nan(), nan(), true},
		{nan(), 0, false},
		{0, nan(), false},
	} {
		g := oneTable("x", "t", []string{"r"}, []string{"c"}, []cell{c.golden})
		o := oneTable("x", "t", []string{"r"}, []string{"c"}, []cell{c.got})
		if bad := compareGolden(g, o); (len(bad) == 0) != c.ok {
			t.Errorf("golden %v, got %v: mismatches %v, want ok=%v", c.golden, c.got, bad, c.ok)
		}
	}
}

func TestCompareGoldenMissingIsFailure(t *testing.T) {
	cases := map[string]resultFile{
		"experiment": {},
		"table":      oneTable("figure5", "Figure 5 (renamed)", []string{"16K", "32K"}, []string{"gshare.fast", "perceptron"}, []cell{4.25, 3.5}, []cell{4.0, nan()}),
		"row":        oneTable("figure5", "Figure 5", []string{"16K"}, []string{"gshare.fast", "perceptron"}, []cell{4.25, 3.5}),
		"column":     oneTable("figure5", "Figure 5", []string{"16K", "32K"}, []string{"gshare.fast"}, []cell{4.25}, []cell{4.0}),
	}
	for what, got := range cases {
		if bad := compareGolden(golden(), got); len(bad) == 0 {
			t.Errorf("missing %s accepted", what)
		}
	}
}

func TestCellJSONRoundTrip(t *testing.T) {
	in := []cell{nan(), 0.1 + 0.2, -0, 1e-300, 12.5}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out []cell
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if !sameFloat(float64(in[i]), float64(out[i])) {
			t.Errorf("%v round-tripped through %s to %v", in[i], data, out[i])
		}
	}
}

func TestParseIPCSim(t *testing.T) {
	out := `gshare.fast @ 64KB, realistic timing (1000 insts/benchmark)
  gzip         IPC  0.745  (mispredict  9.28%)
  HMEAN        IPC  0.553 (harmonic mean)

perceptron @ 64KB, realistic timing (1000 insts/benchmark)
  gzip         IPC  0.802  (mispredict  7.01%  override 4.50%)
a line a later version might add
  HMEAN        IPC  0.802 (harmonic mean)
`
	got, err := parseIPCSim([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	want := resultFile{Experiments: []experiment{{ID: "ipcsim", Tables: []table{
		{Title: "gshare.fast @ 64KB, realistic timing (1000 insts/benchmark)", Rows: []string{"gzip", "HMEAN"},
			Cols: []string{"IPC", "mispredict%", "override%"}, Values: [][]cell{{0.745, 9.28, nan()}, {0.553, nan(), nan()}}},
		{Title: "perceptron @ 64KB, realistic timing (1000 insts/benchmark)", Rows: []string{"gzip", "HMEAN"},
			Cols: []string{"IPC", "mispredict%", "override%"}, Values: [][]cell{{0.802, 7.01, 4.5}, {0.802, nan(), nan()}}},
	}}}}
	if bad := append(compareGolden(want, got), compareGolden(got, want)...); len(bad) != 0 {
		t.Errorf("parsed report differs: %v", bad)
	}
	if _, err := parseIPCSim([]byte("usage: ipcsim\n")); err == nil {
		t.Error("a report without predictor tables parsed")
	}
}
