package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"strconv"
)

// resultFile is the part of cmd/reproduce's -json output the golden check
// reads: experiments by id, tables by title, cells by row and column label.
// Golden files use the same shape.
type resultFile struct {
	Experiments []experiment `json:"experiments"`
}

type experiment struct {
	ID     string  `json:"id"`
	Tables []table `json:"tables"`
}

type table struct {
	Title  string   `json:"title"`
	Rows   []string `json:"rows"`
	Cols   []string `json:"cols"`
	Values [][]cell `json:"values"`
}

// cell is one table value. JSON has no NaN, so a NaN cell (a figure the
// program does not print, such as the override rate of a predictor that
// never overrides) is written as the string "NaN".
type cell float64

func (c cell) MarshalJSON() ([]byte, error) {
	if math.IsNaN(float64(c)) {
		return []byte(`"NaN"`), nil
	}
	return []byte(strconv.FormatFloat(float64(c), 'g', -1, 64)), nil
}

func (c *cell) UnmarshalJSON(b []byte) error {
	if string(b) == `"NaN"` {
		*c = cell(math.NaN())
		return nil
	}
	f, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return fmt.Errorf("table value %s: %w", b, err)
	}
	*c = cell(f)
	return nil
}

func loadResultFile(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("parse %s: %w", path, err)
	}
	return f, nil
}

func saveResultFile(path string, f resultFile) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// compareGolden lists every golden value that got does not reproduce. got
// may hold more experiments, tables, rows and columns than golden — a later
// change may add a table — but every golden cell must be present under the
// same experiment id, table title, row label and column label, with a
// bit-equal value. NaN matches only NaN.
func compareGolden(golden, got resultFile) []string {
	var bad []string
	for _, ge := range golden.Experiments {
		oe := findExperiment(got, ge.ID)
		if oe == nil {
			bad = append(bad, fmt.Sprintf("experiment %s: missing", ge.ID))
			continue
		}
		for _, gt := range ge.Tables {
			ot := findTable(oe, gt.Title)
			if ot == nil {
				bad = append(bad, fmt.Sprintf("%s / %q: table missing", ge.ID, gt.Title))
				continue
			}
			for i, row := range gt.Rows {
				for j, col := range gt.Cols {
					want := float64(gt.Values[i][j])
					have, ok := ot.value(row, col)
					switch {
					case !ok:
						bad = append(bad, fmt.Sprintf("%s / %q [%s, %s]: cell missing", ge.ID, gt.Title, row, col))
					case !sameFloat(want, have):
						bad = append(bad, fmt.Sprintf("%s / %q [%s, %s]: got %v, golden %v", ge.ID, gt.Title, row, col, have, want))
					}
				}
			}
		}
	}
	return bad
}

func sameFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

func findExperiment(f resultFile, id string) *experiment {
	for i := range f.Experiments {
		if f.Experiments[i].ID == id {
			return &f.Experiments[i]
		}
	}
	return nil
}

func findTable(e *experiment, title string) *table {
	for i := range e.Tables {
		if e.Tables[i].Title == title {
			return &e.Tables[i]
		}
	}
	return nil
}

// value returns the cell at the first row and column with the given labels.
func (t *table) value(row, col string) (float64, bool) {
	for i, r := range t.Rows {
		if r != row || i >= len(t.Values) {
			continue
		}
		for j, c := range t.Cols {
			if c == col && j < len(t.Values[i]) {
				return float64(t.Values[i][j]), true
			}
		}
	}
	return 0, false
}

var (
	// "perceptron @ 64KB, realistic timing (2000000 insts/benchmark)"
	ipcsimHeader = regexp.MustCompile(`^(\S+) @ \d+KB, .*$`)
	// "  gzip         IPC  0.745  (mispredict  9.28%  override 7.10%)"
	// "  HMEAN        IPC  0.553 (harmonic mean)"
	ipcsimRow = regexp.MustCompile(`^\s+(\S+)\s+IPC\s+(\S+)\s+\((?:mispredict\s+(\S+)%(?:\s+override\s+(\S+)%)?|harmonic mean)\)$`)
)

// parseIPCSim turns cmd/ipcsim's report into one table per predictor, with
// a row per benchmark (and HMEAN) and the printed IPC, mispredict and
// override figures as columns; a figure the line does not print is NaN.
// Lines of any other shape are ignored, so the report may grow.
func parseIPCSim(out []byte) (resultFile, error) {
	var tables []table
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if ipcsimHeader.MatchString(line) {
			tables = append(tables, table{Title: line, Cols: []string{"IPC", "mispredict%", "override%"}})
			continue
		}
		m := ipcsimRow.FindStringSubmatch(line)
		if m == nil || len(tables) == 0 {
			continue
		}
		row := make([]cell, 3)
		for i, s := range m[2:] {
			row[i] = cell(math.NaN())
			if s == "" {
				continue
			}
			f, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return resultFile{}, fmt.Errorf("ipcsim line %q: %w", line, err)
			}
			row[i] = cell(f)
		}
		t := &tables[len(tables)-1]
		t.Rows = append(t.Rows, m[1])
		t.Values = append(t.Values, row)
	}
	if len(tables) == 0 {
		return resultFile{}, fmt.Errorf("ipcsim printed no predictor report")
	}
	return resultFile{Experiments: []experiment{{ID: "ipcsim", Tables: tables}}}, nil
}
