package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"atmatrix/internal/mat"
)

func TestGeneratorsAreDeterministicBySeed(t *testing.T) {
	a, err := buildIngest(3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildIngest(3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := buildIngest(4)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for i := range a.templates {
		x, y, z := a.templates[i].op.bin, b.templates[i].op.bin, c.templates[i].op.bin
		if !bytes.Equal(x, y) {
			t.Errorf("pool matrix %d differs between two builds with seed 3", i)
		}
		if bytes.Equal(x, z) {
			t.Errorf("pool matrix %d is the same for seeds 3 and 4", i)
		}
		if seen[string(x)] {
			t.Errorf("pool matrix %d repeats an earlier one", i)
		}
		seen[string(x)] = true
	}
	for _, id := range []string{"R1", "R3", "G1", "G5"} {
		p, _ := standIn(id, 1.0/32, 0, 9)
		q, _ := standIn(id, 1.0/32, 0, 9)
		r, _ := standIn(id, 1.0/32, 0, 10)
		if !reflect.DeepEqual(p, q) || reflect.DeepEqual(p, r) {
			t.Errorf("%s: same seed must give the same matrix, another seed another", id)
		}
		if !sameStructure(p.ToCSR(), r.ToCSR()) {
			t.Errorf("%s: another seed must change only the values", id)
		}
	}
	if sameStructure(a.templates[1].op.csr, a.templates[3].op.csr) {
		t.Error("pool matrices 1 and 3 have the same structure")
	}
}

// sameStructure reports whether a and b have the same shape and non-zero
// positions.
func sameStructure(a, b *mat.CSR) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols &&
		reflect.DeepEqual(a.RowPtr, b.RowPtr) && reflect.DeepEqual(a.ColIdx, b.ColIdx)
}

func TestCountsRepeatExactlyForASeed(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			w, err := buildWorkload(name, 5)
			if err != nil {
				t.Fatal(err)
			}
			first, err := census(w)
			if err != nil {
				t.Fatal(err)
			}
			second, err := census(w)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range exactCounts {
				if first[k] != second[k] {
					t.Errorf("%s: %v, then %v", k, first[k], second[k])
				}
			}
			if first["core.tiles_sparse"]+first["core.tiles_dense"] == 0 {
				t.Error("census partitioned nothing")
			}
		})
	}
}

func TestCompareCSRCatchesWrongValues(t *testing.T) {
	want := mat.NewCOO(2, 3)
	want.Append(0, 1, 2)
	want.Append(1, 2, -1)
	got := want.Clone()
	if err := compareCSR(got.ToCSR(), want.ToCSR()); err != nil {
		t.Fatalf("identical matrices: %v", err)
	}
	withZero := want.Clone()
	withZero.Append(1, 0, 0) // an explicit zero is not a difference
	if err := compareCSR(withZero.ToCSR(), want.ToCSR()); err != nil {
		t.Errorf("explicit zero: %v", err)
	}
	off := want.Clone()
	off.Ent[1].Val = -1.001
	if compareCSR(off.ToCSR(), want.ToCSR()) == nil {
		t.Error("a wrong value passed")
	}
	extra := want.Clone()
	extra.Append(0, 0, 1)
	if compareCSR(extra.ToCSR(), want.ToCSR()) == nil {
		t.Error("an extra non-zero passed")
	}
	if compareCSR(want.ToCSR(), extra.ToCSR()) == nil {
		t.Error("a missing non-zero passed")
	}
}

func TestFlopsCountsMultiplyAdds(t *testing.T) {
	a := mat.NewCOO(2, 2) // [[1 1] [0 1]]
	a.Append(0, 0, 1)
	a.Append(0, 1, 1)
	a.Append(1, 1, 1)
	// a·a: column 0 (1 entry) meets row 0 (2), column 1 (2) meets row 1 (1).
	if got := flops(a.ToCSR(), a.ToCSR()); got != 2*(1*2+2*1) {
		t.Errorf("flops = %d, want 8", got)
	}
}

// TestBenchmarkJSONMatchesTheDriver keeps BENCHMARK.json and the metrics
// the driver prints in step.
func TestBenchmarkJSONMatchesTheDriver(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, driver has %v", names, workloadNames)
	}
	for _, c := range []struct {
		json   []entry
		driver []metric
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.driver) {
			t.Errorf("%d metrics in BENCHMARK.json, %d in the driver", len(c.json), len(c.driver))
			continue
		}
		for i, m := range c.driver {
			if e := c.json[i]; e.Name != m.name || e.Unit != m.unit || e.Better != m.better {
				t.Errorf("BENCHMARK.json has %+v, driver has %+v", e, m)
			}
		}
	}
}
