package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	sgml "repro"
	"repro/internal/core"
	"repro/internal/store"
)

// runCampaign is the campaign-5x20 workload: back-to-back sweeps of the
// trip/shed/heal drill into a fresh result store each.
func runCampaign(cfg *config) (*outcome, error) {
	ms, _, err := sgml.ScaleModelSet(5, 20)
	if err != nil {
		return nil, err
	}
	drill := campaignDrill()
	out := newOutcome("one sweep of 20 runs", "runs")

	compile := func() (*sgml.CyberRange, error) {
		runtime.GC()
		a := time.Now()
		r, err := sgml.Compile(ms)
		if err != nil {
			return nil, err
		}
		d := time.Since(a)
		out.setup = append(out.setup, d)
		out.compile = append(out.compile, d)
		return r, nil
	}
	root, err := compile() // the fork root of the traced stepping
	if err != nil {
		return nil, err
	}
	defer root.Stop()

	seeds := newSweepSeeds(cfg.seed)
	sw := &sweeper{cfg: cfg, ms: ms, drill: drill, out: out}
	if !cfg.trace {
		deadline := time.Now().Add(cfg.seconds)
		for n := 0; n == 0 || time.Now().Before(deadline); n++ {
			sw.sweep(seeds.next(), nil)
		}
		out.note("%d sweeps of %d runs, sealed and verified", sw.sweeps, sweepRuns)
	} else {
		campaignTraced(cfg, out, sw, seeds, root)
	}
	out.markPeak()

	// The remaining set-ups and the reference runs come after the loop, so
	// they leave peak_rss_mb alone.
	for i := 1; i < cfg.setups; i++ {
		r, err := compile()
		if err != nil {
			return nil, err
		}
		r.Stop()
	}
	refs := make(map[int64]string, len(seeds.pool))
	for _, s := range seeds.pool {
		rep, err := sgml.Run(context.Background(), ms, drill, sgml.WithSeed(s))
		if err != nil {
			return nil, fmt.Errorf("reference run of seed %d: %w", s, err)
		}
		refs[s] = rep.Fingerprint()
	}
	for _, r := range sw.results {
		if r.fingerprint != refs[r.seed] {
			out.fail(fmt.Errorf("sweep %d seed %d: fingerprint differs from a fresh sgml.Run of the seed", r.sweep, r.seed))
		}
	}
	return out, nil
}

// campaignTraced alternates untraced sweeps with sweeps whose store is
// wrapped with timers, then steps forks of root through the same drill.
func campaignTraced(cfg *config, out *outcome, sw *sweeper, seeds *sweepSeeds, root *sgml.CyberRange) {
	t := out.newTrace()
	st := &sweepTrace{}
	deadline := time.Now().Add(cfg.seconds * 4 / 5)
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		// Alternate which goes first, so neither side always follows the
		// other's store clean-up.
		if n%2 == 0 {
			sw.sweep(seeds.next(), nil)
			sw.sweep(seeds.next(), st)
		} else {
			sw.sweep(seeds.next(), st)
			sw.sweep(seeds.next(), nil)
		}
	}
	for _, s := range st.sweeps {
		id := t.add("campaign.sweep", -1, -1, -1, s.a, s.b)
		for _, p := range st.puts {
			if !p.a.Before(s.a) && !p.b.After(s.b) {
				t.add("store.put", id, -1, -1, p.a, p.b)
			}
		}
		for _, f := range st.finishes {
			if !f.a.Before(s.a) && !f.b.After(s.b) {
				t.add("store.finish", id, -1, -1, f.a, f.b)
			}
		}
	}
	for _, v := range st.verifies {
		t.add("store.verify", -1, -1, -1, v.a, v.b)
	}
	out.layers["store.put_ms"] = median(t.durations("store.put"))
	out.layers["store.finish_ms"] = median(t.durations("store.finish"))
	out.layers["store.verify_ms"] = median(t.durations("store.verify"))
	out.layers["campaign.worker_busy_ratio"] = st.busy.Seconds() / (float64(cfg.workers) * st.wall.Seconds())
	out.layers["trace.overhead_ms"] = median(st.sweepMs) - median(msAll(out.lat))

	stepForks(out, root, campaignDrillSteps(), cfg.seconds/5)
}

// sweeper runs and checks campaign sweeps.
type sweeper struct {
	cfg   *config
	ms    *sgml.ModelSet
	drill *sgml.Scenario
	out   *outcome

	sweeps  int
	results []runResult // checked against reference runs at the end
}

type runResult struct {
	sweep       int
	seed        int64
	fingerprint string
}

func (w *sweeper) sweep(seeds []int64, st *sweepTrace) {
	dir := filepath.Join(w.cfg.dir, fmt.Sprintf("store-%d", w.sweeps))
	w.sweeps++
	defer os.RemoveAll(dir)
	c := &sgml.Campaign{
		Name:     "campaign-5x20",
		Model:    w.ms,
		Variants: []sgml.CampaignVariant{{Name: "drill", Scenario: w.drill, Seeds: seeds}},
	}
	opts := []sgml.CampaignOption{sgml.WithWorkers(w.cfg.workers)}
	if st == nil {
		opts = append(opts, sgml.WithStore(dir))
	} else {
		opts = append(opts, core.WithCampaignStore(st.opener(dir)))
	}
	a := time.Now()
	rep, err := sgml.RunCampaign(context.Background(), c, opts...)
	b := time.Now()
	if err != nil {
		for range seeds {
			w.out.attempt(err, "sweep %d", w.sweeps)
		}
		return
	}
	for _, run := range rep.Runs {
		err := checkRun(run)
		if err == nil {
			w.results = append(w.results, runResult{w.sweeps, run.Seed, run.Report.Fingerprint()})
		}
		w.out.attempt(err, "sweep %d seed %d", w.sweeps, run.Seed)
		if st != nil {
			st.busy += run.CompileTime + run.Duration
		}
	}
	if st == nil {
		w.out.done(b.Sub(a), len(rep.Runs))
	} else {
		st.wall += b.Sub(a)
		st.sweepMs = append(st.sweepMs, millis(b.Sub(a)))
	}
	if !rep.OK() || rep.MerkleRoot == "" {
		w.out.fail(fmt.Errorf("sweep %d: ok=%t sealed=%t", w.sweeps, rep.OK(), rep.MerkleRoot != ""))
	}
	va := time.Now()
	vs, err := sgml.VerifyStore(dir)
	vb := time.Now()
	switch {
	case err != nil:
		w.out.fail(fmt.Errorf("sweep %d: verify store: %w", w.sweeps, err))
	case len(vs) != 1 || vs[0].Runs != len(seeds) || vs[0].Root != rep.MerkleRoot:
		w.out.fail(fmt.Errorf("sweep %d: store verification %+v does not match the sealed report", w.sweeps, vs))
	}
	if st != nil {
		st.sweeps = append(st.sweeps, interval{a, b})
		st.verifies = append(st.verifies, interval{va, vb})
	}
}

func checkRun(run sgml.CampaignRun) error {
	switch {
	case run.Err != "" || run.Failure != sgml.FailNone:
		return fmt.Errorf("run failed (%s): %s", run.Failure, run.Err)
	case len(run.EventErrors) > 0:
		return fmt.Errorf("events failed: %v", run.EventErrors)
	case run.Report == nil:
		return fmt.Errorf("no report")
	}
	return nil
}

type interval struct{ a, b time.Time }

// sweepTrace collects the timings of traced sweeps. Put runs on the
// campaign's worker goroutines, hence the lock.
type sweepTrace struct {
	mu               sync.Mutex
	puts, finishes   []interval
	sweeps, verifies []interval
	sweepMs          []float64
	wall, busy       time.Duration // RunCampaign wall time; Σ run CompileTime + Duration
}

func (st *sweepTrace) opener(dir string) core.StoreOpener {
	return func(c *core.Campaign) (core.CampaignStore, error) {
		s, err := store.OpenJSONL(dir, c)
		if err != nil {
			return nil, err
		}
		return &timedStore{JSONL: s, st: st}, nil
	}
}

// timedStore times the JSONL store's write path.
type timedStore struct {
	*store.JSONL
	st *sweepTrace
}

func (s *timedStore) Put(run core.CampaignRun) error {
	a := time.Now()
	err := s.JSONL.Put(run)
	b := time.Now()
	s.st.mu.Lock()
	s.st.puts = append(s.st.puts, interval{a, b})
	s.st.mu.Unlock()
	return err
}

func (s *timedStore) Finish(rep *core.CampaignReport) error {
	a := time.Now()
	err := s.JSONL.Finish(rep)
	b := time.Now()
	s.st.mu.Lock()
	s.st.finishes = append(s.st.finishes, interval{a, b})
	s.st.mu.Unlock()
	return err
}
