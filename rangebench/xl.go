package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	sgml "repro"
)

// runXL is the xl-interactive workload: the 10×50 XL model compiled and
// started once, then stepped in a closed loop through the operator
// schedule, replayed back to back until the time is up.
func runXL(cfg *config) (*outcome, error) {
	ms, _, err := sgml.ScaleModelSetXL()
	if err != nil {
		return nil, err
	}
	out := newOutcome("one step", "steps")

	// The first set-up gives a, the interactive range. The remaining
	// set-ups run after the loop, with at most one other XL range live, so
	// they leave the loop's peak_rss_mb alone.
	setup := func() (*sgml.CyberRange, error) {
		runtime.GC()
		a := time.Now()
		r, err := sgml.Compile(ms)
		if err != nil {
			return nil, err
		}
		b := time.Now()
		if err := r.Start(context.Background(), false); err != nil {
			r.Stop()
			return nil, err
		}
		c := time.Now()
		out.setup = append(out.setup, c.Sub(a))
		out.compile = append(out.compile, b.Sub(a))
		out.start = append(out.start, c.Sub(b))
		return r, nil
	}
	moreSetups := func(n int) error {
		for i := 0; i < n; i++ {
			r, err := setup()
			if err != nil {
				return err
			}
			out.timeStop(r)
		}
		return nil
	}
	a, err := setup()
	if err != nil {
		return nil, err
	}
	sched := flipSchedule(cfg.seed, gridOf(a), cfg.passSteps)

	sa := newStepper(a)
	var digest string
	pass := func(n int, deadline time.Time) {
		for i, se := range sched {
			if n > 0 && !deadline.IsZero() && !time.Now().Before(deadline) {
				break
			}
			res := sa.untraced(se)
			out.op(res.wall, stepCheck(res, se), "pass %d step %d", n, i)
		}
		if n == 0 {
			digest = busDigest(a)
		}
	}

	if !cfg.trace {
		// The closed loop: every step is an operation. The kv bus after the
		// first pass must equal that of b stepped through the same pass by
		// the single-threaded reference engine.
		deadline := time.Now().Add(cfg.seconds)
		for n := 0; n == 0 || time.Now().Before(deadline); n++ {
			pass(n, deadline)
		}
		out.markPeak()
		out.timeStop(a)
		if err := moreSetups(cfg.setups - 2); err != nil {
			return nil, err
		}
		b, err := setup()
		if err != nil {
			return nil, err
		}
		defer out.timeStop(b)
		sb := newStepper(b)
		for i, se := range sched {
			if err := sb.sequential(se); err != nil {
				out.fail(fmt.Errorf("reference step %d: %w", i, err))
			}
		}
		if ref := busDigest(b); ref != digest {
			out.fail(fmt.Errorf("kv bus digest %s after one pass, reference engine %s", digest, ref))
		}
		out.note("kv bus digest after one pass: %s (reference engine agrees)", digest)
		return out, nil
	}

	// Traced: whole passes alternate between a, untraced, and a second
	// range b, through the traced loop. b's first pass must end in a's kv
	// bus.
	defer out.timeStop(a)
	b, err := setup()
	if err != nil {
		return nil, err
	}
	defer out.timeStop(b)
	sb := newStepper(b)
	t := out.newTrace()
	var acc layerAcc
	var traced []float64
	deadline := time.Now().Add(cfg.seconds)
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		pass(n, time.Time{})
		for i, se := range sched {
			res := sb.traced(se, t, -1, n, &acc)
			out.attempt(stepCheck(res, se), "traced pass %d step %d", n, i)
			traced = append(traced, millis(res.wall))
		}
		if n > 0 {
			continue
		}
		if d := busDigest(b); d != digest {
			out.fail(fmt.Errorf("kv bus digest %s after one traced pass, untraced %s", d, digest))
		}
	}
	out.markPeak()
	untraced := msAll(out.lat)
	out.stepLayers(t, &acc, untraced, b.Bus.Len())
	out.layers["trace.overhead_ms"] = median(traced) - median(untraced)
	out.note("kv bus digest after one pass: %s (traced loop agrees)", digest)
	return out, moreSetups(cfg.setups - 2)
}
