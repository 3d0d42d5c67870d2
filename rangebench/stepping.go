package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime/metrics"
	"sort"
	"time"

	sgml "repro"
)

// stepper drives one started range through a schedule, a step at a time.
// Untraced, a step is Sim.Apply of the scheduled event plus StepAll. Traced,
// the step calls the layers itself in StepAllSequential order (Sim.Step,
// every IED.Step in name order, every PLC.Scan in shard order,
// HMI.PollOnce) with a span around each call.
type stepper struct {
	r    *sgml.CyberRange
	ieds []string
	plcs []string
	base time.Time
	n    int // steps taken
}

func newStepper(r *sgml.CyberRange) *stepper {
	s := &stepper{r: r, base: time.Now()}
	for name := range r.IEDs {
		s.ieds = append(s.ieds, name)
	}
	sort.Strings(s.ieds)
	for _, sh := range r.Shards() {
		s.plcs = append(s.plcs, sh.PLCs...)
	}
	return s
}

// stepResult is one step's wall time and whether it rebuilt the power-flow
// topology cache.
type stepResult struct {
	wall time.Duration
	miss bool
	err  error
}

var errSolve = errors.New("power-flow solve failed")

func (s *stepper) now() time.Time {
	s.n++
	return s.base.Add(time.Duration(s.n) * s.r.Interval())
}

func (s *stepper) untraced(se stepEvent) stepResult {
	r := s.r
	now := s.now()
	_, m0, f0 := r.PowerSolverStats()
	t0 := time.Now()
	var err error
	if se.ev.Kind != 0 {
		err = r.Sim.Apply(se.ev)
	}
	if err == nil {
		err = r.StepAll(now)
	}
	wall := time.Since(t0)
	_, m1, f1 := r.PowerSolverStats()
	if err == nil && f1 != f0 {
		err = errSolve
	}
	return stepResult{wall: wall, miss: m1 > m0, err: err}
}

// sequential steps with the reference engine, untimed.
func (s *stepper) sequential(se stepEvent) error {
	if se.ev.Kind != 0 {
		if err := s.r.Sim.Apply(se.ev); err != nil {
			return err
		}
	}
	return s.r.StepAllSequential(s.now())
}

// layerAcc collects the per-step counts of a traced stepping loop.
type layerAcc struct {
	simAllocs, iedAllocs []float64
	rebuildMs            []float64
	hits, misses, fails  uint64
}

var heapSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

// heapObjects is the process's cumulative count of heap allocations.
func heapObjects() uint64 {
	metrics.Read(heapSample)
	return heapSample[0].Value.Uint64()
}

func (s *stepper) traced(se stepEvent, t *tracer, parent, run int, acc *layerAcc) stepResult {
	r := s.r
	now := s.now()
	step := s.n - 1
	h0, m0, f0 := r.PowerSolverStats()
	n0, mean0 := r.Sim.Stats()
	id := t.open("core.step", parent, run, step)
	var err error
	if se.ev.Kind != 0 {
		a := time.Now()
		err = r.Sim.Apply(se.ev)
		t.add("core.event", id, run, step, a, time.Now())
	}
	if err == nil {
		o := heapObjects()
		a := time.Now()
		_, err = r.Sim.Step()
		b := time.Now()
		acc.simAllocs = append(acc.simAllocs, float64(heapObjects()-o))
		n1, mean1 := r.Sim.Stats()
		solve := time.Duration(int64(n1)*int64(mean1) - int64(n0)*int64(mean0))
		p := t.add("powersim.step", id, run, step, a, b)
		t.add("powerflow.solve", p, run, step, a, a.Add(solve))
	}
	if err == nil {
		o := heapObjects()
		a := time.Now()
		for _, name := range s.ieds {
			r.IEDs[name].Step(now)
		}
		t.add("ied.step", id, run, step, a, time.Now())
		acc.iedAllocs = append(acc.iedAllocs, float64(heapObjects()-o))
		if len(s.plcs) > 0 {
			a = time.Now()
			for _, name := range s.plcs {
				if e := r.PLCs[name].Scan(now); e != nil && err == nil {
					err = fmt.Errorf("PLC %s: %w", name, e)
				}
			}
			t.add("plc.scan", id, run, step, a, time.Now())
		}
		if err == nil && r.HMI != nil {
			a = time.Now()
			r.HMI.PollOnce()
			t.add("scada.poll", id, run, step, a, time.Now())
		}
	}
	t.close(id)
	h1, m1, f1 := r.PowerSolverStats()
	if err == nil && f1 != f0 {
		err = errSolve
	}
	acc.hits += h1 - h0
	acc.misses += m1 - m0
	acc.fails += f1 - f0
	res := stepResult{wall: time.Duration(t.spans[id].dur()), miss: m1 > m0, err: err}
	if res.miss {
		acc.rebuildMs = append(acc.rebuildMs, millis(res.wall))
	}
	return res
}

// stepCheck is a step's correctness gate: it ran without error and rebuilt
// the solver's topology exactly when the schedule changed the topology.
func stepCheck(res stepResult, se stepEvent) error {
	if res.err != nil {
		return res.err
	}
	if res.miss != se.flip {
		return fmt.Errorf("topology cache miss=%t on a step with flip=%t", res.miss, se.flip)
	}
	return nil
}

// busDigest hashes the kv bus — the state coupling the power simulation to
// the devices — in key order.
func busDigest(r *sgml.CyberRange) string {
	snap := r.Bus.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, snap[k])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// session is one fork of a compiled root, started, stepped through a
// schedule and stopped.
type session struct {
	fork, start, stop time.Duration
	steps             []stepResult
	digest            string
	keys              int // kv bus keys at the end
}

// runSession steps a fresh fork of root through sched. With t non-nil the
// steps are traced and the session's calls become spans under one
// core.session span.
func runSession(root *sgml.CyberRange, sched []stepEvent, t *tracer, run int, acc *layerAcc) (*session, error) {
	var sess session
	parent := -1
	if t != nil {
		parent = t.open("core.session", -1, run, -1)
		defer t.close(parent)
	}
	a := time.Now()
	r, err := root.Fork()
	b := time.Now()
	if err != nil {
		return nil, fmt.Errorf("fork: %w", err)
	}
	err = r.Start(context.Background(), false)
	c := time.Now()
	if err != nil {
		r.Stop()
		return nil, fmt.Errorf("start: %w", err)
	}
	sess.fork, sess.start = b.Sub(a), c.Sub(b)
	if t != nil {
		t.add("core.fork", parent, run, -1, a, b)
		t.add("core.start", parent, run, -1, b, c)
	}
	st := newStepper(r)
	for _, se := range sched {
		if t != nil {
			sess.steps = append(sess.steps, st.traced(se, t, parent, run, acc))
		} else {
			sess.steps = append(sess.steps, st.untraced(se))
		}
	}
	sess.digest, sess.keys = busDigest(r), r.Bus.Len()
	a = time.Now()
	r.Stop()
	b = time.Now()
	sess.stop = b.Sub(a)
	if t != nil {
		t.add("core.stop", parent, run, -1, a, b)
	}
	return &sess, nil
}

// stepForks steps forks of root through sched for about d, alternating
// untraced and traced forks (at least one of each). It fills the step-path
// and fork metrics and checks every step and that every fork ends in the
// same kv bus.
func stepForks(out *outcome, root *sgml.CyberRange, sched []stepEvent, d time.Duration) {
	t := out.tracer
	var acc layerAcc
	var untraced, forks []float64
	digest, keys := "", 0
	deadline := time.Now().Add(d)
	for n := 0; n < 2 || time.Now().Before(deadline); n++ {
		traced := n%2 == 1
		var tt *tracer
		if traced {
			tt = t
		}
		sess, err := runSession(root, sched, tt, n, &acc)
		if err != nil {
			out.attempt(err, "fork %d", n)
			continue
		}
		forks = append(forks, millis(sess.fork))
		out.start = append(out.start, sess.start)
		out.stops = append(out.stops, sess.stop)
		for i, res := range sess.steps {
			out.attempt(stepCheck(res, sched[i]), "fork %d step %d", n, i)
			if !traced {
				untraced = append(untraced, millis(res.wall))
			}
		}
		if digest == "" {
			digest = sess.digest
		} else if sess.digest != digest {
			out.fail(fmt.Errorf("fork %d (traced=%t) ends with kv bus digest %s, fork 0 with %s", n, traced, sess.digest, digest))
		}
		keys = sess.keys
	}
	out.layers["core.fork_ms"] = median(forks)
	out.stepLayers(t, &acc, untraced, keys)
}
