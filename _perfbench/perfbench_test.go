package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	cases := []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"none", nil, 100},
		{"disjoint", []span{{Start: 10, End: 20}, {Start: 50, End: 70}}, 70},
		{"overlapping", []span{{Start: 10, End: 40}, {Start: 30, End: 60}}, 50},
		{"nested", []span{{Start: 10, End: 60}, {Start: 20, End: 30}}, 50},
		{"identical", []span{{Start: 10, End: 60}, {Start: 10, End: 60}}, 50},
		{"clipped to parent", []span{{Start: -20, End: 10}, {Start: 90, End: 130}}, 80},
		{"outside parent", []span{{Start: 120, End: 130}}, 100},
		{"covering", []span{{Start: 30, End: 100}, {Start: 0, End: 40}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
		// Child order must not matter.
		rev := make([]span, len(c.children))
		for i, s := range c.children {
			rev[len(rev)-1-i] = s
		}
		if got := selfTime(parent, rev); got != c.want {
			t.Errorf("%s reversed: self time %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSelfTimesGroupsByParent(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "Router.Submit", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "Pool.Submit", Start: 2, End: 10},
		{ID: 3, Parent: 2, Name: "ServeBatch", Start: 4, End: 9},
		{ID: 4, Parent: 2, Name: "ServeBatch", Start: 5, End: 10},
		{ID: 5, Name: "Router.Submit", Start: 20, End: 25},
	}
	if got, want := selfTimes(spans, "Router.Submit"), []time.Duration{2, 5}; !equalDurations(got, want) {
		t.Errorf("Router.Submit self times %v, want %v", got, want)
	}
	if got, want := selfTimes(spans, "Pool.Submit"), []time.Duration{2}; !equalDurations(got, want) {
		t.Errorf("Pool.Submit self times %v, want %v", got, want)
	}
}

func equalDurations(a, b []time.Duration) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCheckPreds(t *testing.T) {
	ref := []float32{0.5, 0.25}
	if err := checkPreds([]float32{0.50005, 0.25}, ref); err != nil {
		t.Errorf("within tolerance: %v", err)
	}
	if err := checkPreds([]float32{0.5003, 0.25}, ref); err == nil {
		t.Error("0.0003 off: no error")
	}
	if err := checkPreds([]float32{0.5}, ref); err == nil {
		t.Error("short predictions: no error")
	}
}

// benchmarkFile is the repository's BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	b := loadBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, bw := range b.Workloads {
		if w := workloads[i]; bw.Name != w.name || bw.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), program %q (%q)", i, bw.Name, bw.Why, w.name, w.why)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced, against a
// freshly built rmserve, and checks that each run is correct and reports
// exactly the metrics BENCHMARK.json declares, with their units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds rmserve and starts it for every workload")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "rmserve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/rmserve")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build rmserve: %v\n%s", err, out)
	}
	b := loadBenchmarkFile(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rep, err := run(config{workload: w, seed: 3, seconds: 0.6, trace: traced,
				rmserve: bin, out: dir, setups: 2, quiet: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v",
					w.name, traced, rep.Correct, rep.Attempted, rep.Failed, rep.problems)
			}
			declared := b.EndToEnd
			if traced {
				declared = b.PerLayer
			}
			if len(rep.Metrics) != len(declared) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.name, traced, len(rep.Metrics), len(declared))
			}
			for _, m := range declared {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w.name, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
}
