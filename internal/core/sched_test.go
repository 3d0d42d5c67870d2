package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/epic"
	"repro/internal/ied"
	"repro/internal/scada"
	"repro/internal/sgmlconf"
)

// scaleModelSet builds the parametric multi-substation model with an
// overload scenario that deterministically drives feeder PTOC trips (and the
// follow-on PTUV pickups) mid-run, so the determinism diff covers IED bus
// writes, not just a quiet range.
func scaleModelSet(t *testing.T, nSubs, feeders int) *ModelSet {
	t.Helper()
	sm, err := epic.NewScaleModel(nSubs, feeders)
	if err != nil {
		t.Fatal(err)
	}
	// Overload the first substation's first feeder and the last substation's
	// last feeder: 0.2 MW * 60 ≈ 0.31 kA at 22 kV, above the 0.25 kA PTOC
	// threshold.
	sm.PowerConfig.Steps = []sgmlconf.ProfileStep{
		{AtMS: 500, Kind: "loadScale", Element: "S1_LD1", Value: 60},
		{AtMS: 900, Kind: "loadScale", Element: fmt.Sprintf("S%d_LD%d", nSubs, feeders), Value: 60},
	}
	return &ModelSet{
		Name:        fmt.Sprintf("scale-%dx%d", nSubs, feeders),
		SCDs:        sm.SCDs,
		SED:         sm.SED,
		IEDConfig:   sm.IEDConfigs,
		PowerConfig: sm.PowerConfig,
		ShardHints:  sm.ShardHints,
	}
}

// runSteps compiles ms, starts the range step-driven, and advances it N
// intervals from a fixed base instant. step selects the engine under test;
// workers > 0 overrides the step-engine pool (default GOMAXPROCS, which the
// CI -cpu run varies).
func runSteps(t *testing.T, ms *ModelSet, steps int, step func(*CyberRange, time.Time) error, workers int) *CyberRange {
	t.Helper()
	r, err := Compile(ms)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Stop)
	if workers > 0 {
		r.engine.workers = workers
	}
	if err := r.Start(context.Background(), false); err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1700000000, 0)
	for i := 0; i < steps; i++ {
		now = now.Add(r.Interval())
		if err := step(r, now); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	return r
}

// diffRanges asserts the two ranges ended in identical observable state:
// every kv bus key (the coupling cache the paper's MySQL plays), per-IED
// trip counts, and — when present — every HMI point's value and quality.
func diffRanges(t *testing.T, seq, par *CyberRange) {
	t.Helper()
	a, b := seq.Bus.Snapshot(), par.Bus.Snapshot()
	if len(a) != len(b) {
		t.Errorf("kvbus key count: sequential %d, parallel %d", len(a), len(b))
	}
	for k, va := range a {
		if vb, ok := b[k]; !ok {
			t.Errorf("kvbus key %q missing from parallel run", k)
		} else if va != vb {
			t.Errorf("kvbus %q: sequential %q, parallel %q", k, va, vb)
		}
		sv, _ := seq.Bus.Get(k)
		pv, _ := par.Bus.Get(k)
		if sv.Version != pv.Version {
			t.Errorf("kvbus %q version: sequential %d, parallel %d", k, sv.Version, pv.Version)
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			t.Errorf("kvbus key %q only in parallel run", k)
		}
	}
	for name, dev := range seq.IEDs {
		if got, want := par.IEDs[name].TripCount(), dev.TripCount(); got != want {
			t.Errorf("IED %s trips: sequential %d, parallel %d", name, want, got)
		}
	}
	if seq.HMI != nil {
		pa, pb := seq.HMI.Points(), par.HMI.Points()
		if len(pa) != len(pb) {
			t.Fatalf("HMI points: sequential %d, parallel %d", len(pa), len(pb))
		}
		for i := range pa {
			if pa[i].XID != pb[i].XID || pa[i].Value != pb[i].Value ||
				pa[i].Binary != pb[i].Binary || pa[i].Quality != pb[i].Quality {
				t.Errorf("HMI point %s: sequential {v=%v b=%v q=%v}, parallel %s {v=%v b=%v q=%v}",
					pa[i].XID, pa[i].Value, pa[i].Binary, pa[i].Quality,
					pb[i].XID, pb[i].Value, pb[i].Binary, pb[i].Quality)
			}
		}
	}
}

func testDeterminism(t *testing.T, ms1, ms2 *ModelSet, steps int) {
	seq := runSteps(t, ms1, steps, (*CyberRange).StepAllSequential, 0)
	par := runSteps(t, ms2, steps, (*CyberRange).StepAll, 0)
	if par.Workers() != runtime.GOMAXPROCS(0) {
		t.Errorf("step pool = %d, want GOMAXPROCS %d", par.Workers(), runtime.GOMAXPROCS(0))
	}
	diffRanges(t, seq, par)
	// The scenario must actually have fired protection, or the diff proved
	// nothing about IED write ordering.
	trips := 0
	for _, dev := range par.IEDs {
		trips += dev.TripCount()
	}
	if trips == 0 {
		t.Error("scenario produced no trips; determinism diff is vacuous")
	}
}

func TestParallelStepDeterminism3x4(t *testing.T) {
	testDeterminism(t, scaleModelSet(t, 3, 4), scaleModelSet(t, 3, 4), 100)
}

func TestParallelStepDeterminism5x20(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: 105-IED determinism soak")
	}
	testDeterminism(t, scaleModelSet(t, 5, 20), scaleModelSet(t, 5, 20), 100)
}

func TestParallelStepDeterminismEPIC(t *testing.T) {
	// The EPIC model exercises the PLC scan and HMI poll phases on top of
	// the IED pass; the HMI point table must match the sequential run too.
	// A PV over-export event trips MIED1 and TIED1 mid-run so the diff also
	// covers breaker commands written during the parallel IED pass.
	overExport := func() *ModelSet {
		ms := epicModelSet(t)
		ms.PowerConfig.Steps = append(ms.PowerConfig.Steps,
			sgmlconf.ProfileStep{AtMS: 2000, Kind: "sgenP", Element: "PV1", Value: 30})
		return ms
	}
	testDeterminism(t, overExport(), overExport(), 50)
}

// TestParallelStepDeterminismConcurrentTrips overloads the first and last
// substations' feeders at the same instant, so IEDs in two shards trip in
// the same step and their breaker commands reach the bus concurrently. The
// diff then covers concurrent direct writes, values and versions both.
func TestParallelStepDeterminismConcurrentTrips(t *testing.T) {
	simultaneous := func() *ModelSet {
		ms := scaleModelSet(t, 3, 4)
		for i := range ms.PowerConfig.Steps {
			ms.PowerConfig.Steps[i].AtMS = 500
		}
		return ms
	}
	var stepEnds []time.Time // wall clock at the end of each parallel step
	stepAll := func(r *CyberRange, now time.Time) error {
		err := r.StepAll(now)
		stepEnds = append(stepEnds, time.Now())
		return err
	}
	seq := runSteps(t, simultaneous(), 100, (*CyberRange).StepAllSequential, 0)
	par := runSteps(t, simultaneous(), 100, stepAll, 0)
	diffRanges(t, seq, par)

	// Attribute every trip to the step whose wall-clock window logged it.
	shardsByStep := map[int]map[string]bool{}
	for _, sh := range par.Shards() {
		for _, name := range sh.IEDs {
			for _, ev := range par.IEDs[name].Events() {
				if ev.Kind != ied.EventTrip {
					continue
				}
				step := sort.Search(len(stepEnds), func(i int) bool { return !stepEnds[i].Before(ev.Time) })
				if shardsByStep[step] == nil {
					shardsByStep[step] = map[string]bool{}
				}
				shardsByStep[step][sh.Name] = true
			}
		}
	}
	for _, shards := range shardsByStep {
		if len(shards) >= 2 {
			return
		}
	}
	t.Errorf("no step tripped IEDs in two shards (trip shards by step: %v); the diff covers no concurrent writes", shardsByStep)
}

func TestParallelStepWorkerEdgeCases(t *testing.T) {
	t.Run("workers=1", func(t *testing.T) {
		seq := runSteps(t, scaleModelSet(t, 3, 4), 40, (*CyberRange).StepAllSequential, 0)
		par := runSteps(t, scaleModelSet(t, 3, 4), 40, (*CyberRange).StepAll, 1)
		if par.Workers() != 1 {
			t.Fatalf("workers = %d", par.Workers())
		}
		diffRanges(t, seq, par)
	})
	t.Run("workers>shards", func(t *testing.T) {
		seq := runSteps(t, scaleModelSet(t, 3, 4), 40, (*CyberRange).StepAllSequential, 0)
		par := runSteps(t, scaleModelSet(t, 3, 4), 40, (*CyberRange).StepAll, 64)
		if got := len(par.Shards()); got != 3 {
			t.Fatalf("shards = %d, want 3", got)
		}
		diffRanges(t, seq, par)
	})
}

func TestShardPartition(t *testing.T) {
	t.Run("scale model shards by substation", func(t *testing.T) {
		r, err := Compile(scaleModelSet(t, 3, 4))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Stop()
		shards := r.Shards()
		if len(shards) != 3 {
			t.Fatalf("shards = %d, want 3", len(shards))
		}
		for i, want := range []string{"S1", "S2", "S3"} {
			if shards[i].Name != want {
				t.Errorf("shard %d = %q, want %q", i, shards[i].Name, want)
			}
			if len(shards[i].IEDs) != 5 { // 4 feeders + 1 gateway
				t.Errorf("shard %s IEDs = %d, want 5", shards[i].Name, len(shards[i].IEDs))
			}
		}
	})
	t.Run("EPIC is a single shard with its PLC", func(t *testing.T) {
		r := compiledEPIC(t)
		shards := r.Shards()
		if len(shards) != 1 {
			t.Fatalf("shards = %v", shards)
		}
		if len(shards[0].IEDs) != 8 || len(shards[0].PLCs) != 1 {
			t.Errorf("shard = %+v, want 8 IEDs + 1 PLC", shards[0])
		}
	})
	t.Run("hints override merge attribution", func(t *testing.T) {
		ms := scaleModelSet(t, 2, 2)
		ms.ShardHints = map[string]string{}
		for _, sub := range []string{"S1", "S2"} {
			ms.ShardHints[sub+"_GW"] = "gateways"
			for f := 1; f <= 2; f++ {
				ms.ShardHints[fmt.Sprintf("%s_IED%d", sub, f)] = "feeders"
			}
		}
		r, err := Compile(ms)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Stop()
		shards := r.Shards()
		if len(shards) != 2 || shards[0].Name != "feeders" || shards[1].Name != "gateways" {
			t.Fatalf("shards = %+v", shards)
		}
		if len(shards[0].IEDs) != 4 || len(shards[1].IEDs) != 2 {
			t.Errorf("shard sizes = %d/%d, want 4/2", len(shards[0].IEDs), len(shards[1].IEDs))
		}
	})
}

// TestParallelStepUnderFault ensures the parallel engine keeps the failure
// semantics the sequential path had: a dead IED must not wedge or panic the
// parallel step, and the HMI marks the source comm-fail.
func TestParallelStepUnderFault(t *testing.T) {
	r := compiledEPIC(t)
	if err := r.Start(context.Background(), false); err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1700000000, 0)
	step := func(n int) {
		for i := 0; i < n; i++ {
			now = now.Add(r.Interval())
			_ = r.StepAll(now)
		}
	}
	step(2)
	r.IEDs["TIED1"].Stop()
	step(3)
	r.HMI.PollOnce()
	r.HMI.PollOnce()
	dead, err := r.HMI.Point("DP_TieCurrent")
	if err != nil {
		t.Fatal(err)
	}
	if dead.Quality != scada.QualityCommFail {
		t.Errorf("dead IED point quality = %v, want COMM_FAIL", dead.Quality)
	}
	if res := r.Sim.LastResult(); res == nil || !res.Converged {
		t.Error("simulation broke after device death under parallel stepping")
	}
}
