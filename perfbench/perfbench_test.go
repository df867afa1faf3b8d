package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// Seeds the benchmark is documented on: the default seed of --seed and
// a held-out seed that no tuning used. digests.json records the
// sweep-robust result digest of both.
var checkedSeeds = []int64{42, 7}

// TestWorkloadsPassChecks runs every workload once per checked seed,
// untimed, through set-up, reference and one checked operation, and
// then the traced run's layer probes of the same workload.
func TestWorkloadsPassChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at full size")
	}
	ctx := context.Background()
	for _, name := range workloadNames() {
		for _, seed := range checkedSeeds {
			w := workloads[name](t.TempDir())
			if err := w.setup(seed); err != nil {
				t.Fatalf("%s seed %d: setup: %v", name, seed, err)
			}
			if err := w.reference(ctx); err != nil {
				t.Fatalf("%s seed %d: reference: %v", name, seed, err)
			}
			o, err := w.run(ctx, nil)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if o.quotes == 0 || o.evals == 0 || len(o.lagsMs) == 0 {
				t.Errorf("%s seed %d: empty operation %+v", name, seed, o)
			}
			if seed != checkedSeeds[0] {
				continue
			}
			tr := newTracer()
			if _, err := w.run(ctx, tr); err != nil {
				t.Fatalf("%s traced: %v", name, err)
			}
			m := map[string]float64{}
			if err := w.layers(ctx, tr, m); err != nil {
				t.Fatalf("%s layers: %v", name, err)
			}
			for k := range m {
				if _, ok := layerUnits[k]; !ok {
					t.Errorf("%s reports undeclared layer metric %s", name, k)
				}
			}
		}
	}
}

func TestCoveredMergesOverlappingChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 150}, {Start: 60, End: 60}}
	if got := covered(parent, kids); got != 40 {
		t.Fatalf("covered = %d, want 40 (10–40 plus 90–100)", got)
	}
}

// TestBenchmarkJSONDeclaresReportedMetrics keeps BENCHMARK.json and the
// metrics this program reports in step, names and units both.
func TestBenchmarkJSONDeclaresReportedMetrics(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want map[string]string) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json declares %d %s metrics, the program reports %d", len(got), kind, len(want))
		}
		for _, m := range got {
			if u, ok := want[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s metric %s [%s]: the program reports unit %q (present %v)", kind, m.Name, m.Unit, u, ok)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEndUnits)
	check("per_layer", decl.PerLayer, layerUnits)
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, the program runs %s", got, want)
	}
}
