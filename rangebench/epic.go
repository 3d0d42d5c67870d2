package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	sgml "repro"
	"repro/internal/core"
)

// epicSessionSteps is the length of the operator script each traced EPIC
// fork is stepped through: two to three breaker flips.
const epicSessionSteps = 60

// runEpic is the epic-redblue workload: one client running forked red/blue
// drills back to back.
func runEpic(cfg *config) (*outcome, error) {
	files, err := sgml.EPICFiles()
	if err != nil {
		return nil, err
	}
	out := newOutcome("one drill", "drills")
	var ms *sgml.ModelSet
	var root *sgml.CyberRange
	var loads []time.Duration
	for i := 0; i < cfg.setups; i++ {
		runtime.GC()
		a := time.Now()
		m, err := sgml.LoadModelFiles("epic", files)
		if err != nil {
			return nil, err
		}
		b := time.Now()
		r, err := sgml.Compile(m)
		if err != nil {
			return nil, err
		}
		c := time.Now()
		out.setup = append(out.setup, c.Sub(a))
		loads = append(loads, b.Sub(a))
		out.compile = append(out.compile, c.Sub(b))
		if root == nil {
			ms, root = m, r
			continue
		}
		r.Stop()
	}
	defer root.Stop()

	drill := redBlueDrill()
	seeds := newDrillSeeds(cfg.seed)
	refs := make(map[int64]*sgml.RunReport, len(seeds.pool))
	for _, s := range seeds.pool {
		rep, err := sgml.Run(context.Background(), ms, drill, sgml.WithSeed(s))
		if err != nil {
			return nil, fmt.Errorf("reference run of seed %d: %w", s, err)
		}
		refs[s] = rep
	}

	drillOnce := func(n int) {
		seed := seeds.next()
		a := time.Now()
		rep, err := sgml.RunCompiled(context.Background(), root, drill, sgml.WithSeed(seed))
		d := time.Since(a)
		if err == nil {
			err = checkDrill(rep, refs[seed])
		}
		out.op(d, err, "drill %d seed %d", n, seed)
	}
	if !cfg.trace {
		deadline := time.Now().Add(cfg.seconds)
		for n := 0; n == 0 || time.Now().Before(deadline); n++ {
			drillOnce(n)
		}
		out.markPeak()
		out.note("%d drills over %d seeds, each matching a fresh sgml.Run", len(out.lat), len(seeds.pool))
		return out, nil
	}

	// Traced: a round of untraced drills alternates with the same number
	// of traced drills; then forks are stepped through the operator script.
	out.newTrace()
	out.layers["sgmlconf.load_ms"] = median(msAll(loads))
	dt := &drillTrace{}
	deadline := time.Now().Add(cfg.seconds * 4 / 5)
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		for range seeds.pool {
			drillOnce(len(out.lat))
		}
		if err := dt.run(out, ms, drill, seeds.pool, refs); err != nil {
			return nil, err
		}
	}
	out.markPeak()
	if err := dt.finish(out); err != nil {
		return nil, err
	}
	g, err := settledGrid(root)
	if err != nil {
		return nil, err
	}
	stepForks(out, root, flipSchedule(cfg.seed, g, epicSessionSteps), cfg.seconds/5)
	return out, nil
}

// settledGrid lists the breakers of a fork of root after a few steps, when
// the PLC has taken command of the breakers it drives.
func settledGrid(root *sgml.CyberRange) (gridNames, error) {
	f, err := root.Fork()
	if err != nil {
		return gridNames{}, err
	}
	defer f.Stop()
	if err := f.Start(context.Background(), false); err != nil {
		return gridNames{}, err
	}
	st := newStepper(f)
	for i := 0; i < 3; i++ {
		if res := st.untraced(stepEvent{}); res.err != nil {
			return gridNames{}, res.err
		}
	}
	return gridOf(f), nil
}

// checkDrill compares a drill's report with the fresh reference run of its
// seed.
func checkDrill(rep, ref *sgml.RunReport) error {
	if rep.Err != "" {
		return fmt.Errorf("drill error: %s", rep.Err)
	}
	if failed := rep.FailedEvents(); len(failed) > 0 {
		return fmt.Errorf("events failed: %v", failed)
	}
	for _, e := range rep.Events {
		if !e.Fired {
			return fmt.Errorf("event %s never fired", e.Event)
		}
	}
	switch {
	case rep.Fingerprint() != ref.Fingerprint():
		return fmt.Errorf("fingerprint differs from a fresh sgml.Run of the seed")
	case rep.Precision != ref.Precision || rep.Recall != ref.Recall:
		return fmt.Errorf("precision/recall %g/%g, fresh run %g/%g", rep.Precision, rep.Recall, ref.Precision, ref.Recall)
	}
	return nil
}

// drillSpanOf names a drill step's span after the scenario action that
// fired in it.
var drillSpanOf = map[string]string{
	"deployIDS":    "ids.deploy_step",
	"portScan":     "attack.portscan_step",
	"falseCommand": "attack.fci_step",
	"mitm":         "attack.mitm_step",
	"modbusTamper": "attack.modbus_step",
}

// drillProbe records when each step of each run starts (core.WithRunProbe)
// and when each run is handed to the sinks.
type drillProbe struct {
	mu     sync.Mutex
	starts map[[2]int64][]time.Time // (seed, attempt) → step start times
	ends   []drillEnd
}

type drillEnd struct {
	run core.CampaignRun
	at  time.Time
}

func (p *drillProbe) probe(_ context.Context, _ string, seed int64, attempt, _, _ int) error {
	now := time.Now()
	p.mu.Lock()
	k := [2]int64{seed, int64(attempt)}
	p.starts[k] = append(p.starts[k], now)
	p.mu.Unlock()
	return nil
}

func (p *drillProbe) Put(run core.CampaignRun) error {
	now := time.Now()
	p.mu.Lock()
	p.ends = append(p.ends, drillEnd{run, now})
	p.mu.Unlock()
	return nil
}

// drillTrace accumulates traced drills.
type drillTrace struct {
	traced                                         []float64
	frames, dropped, gets, hits, inspected, alerts float64
	runs                                           int
}

// run executes one drill per pool seed through a one-worker RunCampaign and
// splits each drill after the first into spans: fork, start, one span per
// step named after the event fired in it, the last step with the scenario
// teardown, and stop. With one worker a drill begins when the previous one
// reached the sinks; the first drill's start also covers the root compile.
func (dt *drillTrace) run(out *outcome, model *sgml.ModelSet, drill *sgml.Scenario, pool []int64, refs map[int64]*sgml.RunReport) error {
	p := &drillProbe{starts: map[[2]int64][]time.Time{}}
	c := &sgml.Campaign{
		Name:     "epic-redblue",
		Model:    model,
		Variants: []sgml.CampaignVariant{{Name: "drill", Scenario: drill, Seeds: pool}},
	}
	rep, err := sgml.RunCampaign(context.Background(), c, sgml.WithWorkers(1),
		core.WithRunProbe(p.probe), core.WithRunSink(p))
	if err != nil {
		return err
	}
	if !rep.OK() {
		out.fail(fmt.Errorf("traced drills: %d failures, %d determinism mismatches", rep.Failures, len(rep.Determinism)))
	}
	t := out.tracer
	for i, e := range p.ends {
		run := e.run
		err := fmt.Errorf("run failed: %s", run.Err)
		if run.Report != nil && run.Err == "" {
			err = checkDrill(run.Report, refs[run.Seed])
		}
		out.attempt(err, "traced drill seed %d", run.Seed)
		if err != nil || i == 0 {
			continue
		}
		dt.runs++
		starts := p.starts[[2]int64{run.Seed, int64(run.Attempt)}]
		begin := p.ends[i-1].at
		forked := begin.Add(run.CompileTime)
		ran := forked.Add(run.Duration)
		id := t.add("core.drill", -1, dt.runs, -1, begin, e.at)
		t.add("core.fork", id, dt.runs, -1, begin, forked)
		t.add("core.start", id, dt.runs, -1, forked, starts[0])
		fired := map[int]string{}
		for _, ev := range run.Report.Events {
			if _, ok := fired[ev.Step]; !ok && ev.Fired {
				fired[ev.Step] = drillSpanOf[ev.Event]
			}
		}
		for s := 0; s+1 < len(starts); s++ {
			name, ok := fired[s]
			if !ok {
				name = "core.quiet_step"
			}
			t.add(name, id, dt.runs, s, starts[s], starts[s+1])
		}
		t.add("core.teardown", id, dt.runs, len(starts)-1, starts[len(starts)-1], ran)
		t.add("core.stop", id, dt.runs, -1, ran, e.at)
		dt.traced = append(dt.traced, millis(e.at.Sub(begin)))

		d := run.Report.Diag
		dt.frames += float64(d.DataPlane.Transmitted)
		dt.dropped += float64(d.DataPlane.Dropped)
		dt.gets += float64(d.DataPlane.PoolGets)
		dt.hits += float64(d.DataPlane.PoolHits)
		dt.inspected += float64(d.FramesInspected)
		dt.alerts += float64(d.AlertsRaised)
	}
	return nil
}

// finish derives the drill-path metrics.
func (dt *drillTrace) finish(out *outcome) error {
	if dt.runs == 0 {
		return fmt.Errorf("no traced drill to decompose")
	}
	t, l, n := out.tracer, out.layers, float64(dt.runs)
	for _, name := range []string{"ids.deploy_step", "attack.portscan_step", "attack.fci_step",
		"attack.mitm_step", "attack.modbus_step", "core.quiet_step", "core.teardown"} {
		l[name+"_ms"] = median(t.durations(name))
	}
	self := selfTimes(t.spans)
	var drillTotal, inSpans int64
	for i, s := range t.spans {
		if s.Name == "core.drill" {
			drillTotal += s.dur()
			inSpans += s.dur() - self[i]
		}
	}
	l["trace.drill_coverage"] = float64(inSpans) / float64(drillTotal)
	l["netem.frames_per_run"] = dt.frames / n
	l["netem.drop_ratio"] = dt.dropped / dt.frames
	l["netem.pool_hit_ratio"] = dt.hits / dt.gets
	l["ids.frames_per_run"] = dt.inspected / n
	l["ids.alerts_per_run"] = dt.alerts / n
	t.count("netem.frames", dt.frames)
	t.count("netem.dropped", dt.dropped)
	t.count("ids.frames", dt.inspected)
	t.count("ids.alerts", dt.alerts)
	l["trace.overhead_ms"] = median(dt.traced) - median(msAll(out.lat))
	return nil
}
