package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/powersim"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		value  float64
		beyond int
	}{
		{5, 50, 3, 2},       // fewer than 20 samples: the median stands in
		{19, 50, 10, 9},     // still too few for 10 beyond the median
		{20, 50, 10, 10},    // the median is the highest with 10 beyond
		{39, 50, 20, 19},    // p75 would leave 9 beyond
		{40, 75, 30, 10},    // p75 leaves exactly 10 beyond
		{100, 90, 90, 10},   // p90
		{999, 95, 950, 49},  // p99 would leave 9 beyond
		{1000, 99, 990, 10}, // p99
		{100000, 99.99, 99990, 10},
	} {
		p, v, beyond := tail(seq(tc.n))
		if p != tc.p || v != tc.value || beyond != tc.beyond {
			t.Errorf("n=%d: tail p%g=%g with %d beyond, want p%g=%g with %d", tc.n, p, v, beyond, tc.p, tc.value, tc.beyond)
		}
	}
	if got := percentile(seq(10), 50); got != 5 {
		t.Errorf("p50 of 1..10 = %g, want 5 (nearest rank)", got)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 60},   // overlaps child 1 by 10
		{ID: 3, Parent: 0, Start: 90, End: 120},  // reaches past the parent
		{ID: 4, Parent: 0, Start: 150, End: 160}, // wholly outside the parent
		{ID: 5, Parent: 1, Start: 15, End: 20},
		{ID: 6, Parent: 1, Start: 15, End: 25}, // contains sibling 5
		{ID: 7, Parent: -1, Start: 200, End: 210},
	}
	got := selfTimes(spans)
	// Parent: 100 minus the union [10,60] ∪ [90,100] = 100 - 60.
	// Child 1: 30 minus [15,25]. Others have no children.
	want := []int64{40, 20, 30, 30, 10, 5, 10, 10}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestInputsFollowTheSeed(t *testing.T) {
	g := gridNames{loads: []string{"L1", "L2", "L3"}, breakers: []string{"CB1", "CB2", "CB3", "CB4"}}
	a, b, c := flipSchedule(7, g, 400), flipSchedule(7, g, 400), flipSchedule(8, g, 400)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different operator schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds, same operator schedule")
	}
	// Flips alternate open and close, 20–30 steps apart, and the schedule
	// ends with every breaker closed.
	last, open := -1, ""
	for i, se := range a {
		if !se.flip {
			if se.ev.Kind != powersim.SetLoadScale || se.ev.Value < 0.9 || se.ev.Value > 1.1 {
				t.Fatalf("step %d: %+v is not a load rescaling within 0.9–1.1", i, se.ev)
			}
			continue
		}
		if last >= 0 && (i-last < 20 || i-last > 30) && i != len(a)-1 {
			t.Errorf("flip at step %d, %d steps after the previous one", i, i-last)
		}
		last = i
		if open == "" {
			open = se.ev.Element
			if se.ev.Value != 0 {
				t.Errorf("step %d: first flip of a pair closes %s", i, open)
			}
		} else {
			if se.ev.Element != open || se.ev.Value != 1 {
				t.Errorf("step %d: %+v does not close %s", i, se.ev, open)
			}
			open = ""
		}
	}
	if open != "" {
		t.Errorf("schedule ends with %s open", open)
	}

	lists := func(seed int64) [][]int64 {
		s := newSweepSeeds(seed)
		var out [][]int64
		for i := 0; i < 5; i++ {
			out = append(out, s.next())
		}
		return out
	}
	if !reflect.DeepEqual(lists(3), lists(3)) {
		t.Error("same seed, different sweep seed lists")
	}
	if reflect.DeepEqual(lists(3), lists(4)) {
		t.Error("different seeds, same sweep seed lists")
	}
	for _, l := range lists(3) {
		sorted := append([]int64(nil), l...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i := 1; i < len(sorted); i++ {
			if sorted[i] == sorted[i-1] {
				t.Fatalf("sweep seed list %v repeats seed %d", l, sorted[i])
			}
		}
	}

	drills := func(seed int64) []int64 {
		d := newDrillSeeds(seed)
		out := append([]int64(nil), d.pool...)
		for i := 0; i < 20; i++ {
			out = append(out, d.next())
		}
		return out
	}
	if !reflect.DeepEqual(drills(5), drills(5)) {
		t.Error("same seed, different drill seeds")
	}
	if reflect.DeepEqual(drills(5), drills(6)) {
		t.Error("different seeds, same drill seeds")
	}
}

// TestSmoke runs every workload untraced and traced at minimal length and
// requires its gates to pass and every metric to be reported.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			name, traced := name, traced
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				cfg := &config{
					seed: 11, seconds: time.Second, trace: traced, workers: 2,
					dir: t.TempDir(), setups: 2, passSteps: 60,
				}
				var buf bytes.Buffer
				res, err := execute(name, cfg, &buf)
				if err != nil {
					t.Fatalf("%v\n%s", err, buf.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%t failed=%d/%d\n%s", res.Correct, res.Failed, res.Attempted, buf.String())
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit {
						t.Errorf("metric %s: %+v, want unit %s", m.name, v, m.unit)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the repository root in step
// with the metrics and workloads this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames())
	}
	for _, c := range []struct {
		list []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		var got []metricDef
		for _, m := range c.list {
			got = append(got, metricDef{m.Name, m.Unit, m.Better})
		}
		if !reflect.DeepEqual(got, c.defs) {
			t.Errorf("BENCHMARK.json lists %v, program %v", got, c.defs)
		}
	}
}
