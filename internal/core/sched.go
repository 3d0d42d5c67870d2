package core

import (
	"sort"
	"sync"
	"time"

	"repro/internal/ied"
	"repro/internal/kvbus"
	"repro/internal/plc"
)

// stepEngine advances the device layer of a range with a two-phase step:
//
//  1. Compute phase: shards run concurrently on a bounded worker pool. Each
//     shard steps its IEDs in sorted order, routing every bus write into the
//     IED's private kvbus.Tx; reads see only the pre-step bus state (the
//     simulator's last publication), exactly as they would sequentially.
//  2. Commit phase: the buffered writes are applied to the bus in globally
//     sorted IED-name order — the same write order StepAllSequential
//     produces, so per-key values, versions and even the watcher stream
//     are byte-identical.
//
// The identity contract covers everything coupled through the kv bus. It
// deliberately excludes GOOSE/R-SV arrival timing: frames are delivered
// through per-device worker goroutines (plus wall-clock link latency) in
// BOTH engines, so which step first observes a peer's publication is
// scheduler-dependent sequentially too; protection that keys off message
// freshness (PDIF) inherits that in either mode.
//
// PLC scans follow on the same pool, one job per shard with the shard's
// PLCs scanned in order (their MMS reads hit IED servers that are quiescent
// once the compute phase has drained). Every PLC is scanned every step —
// one failing scan never skips the rest, which would fork the state from
// the reference engine — and the surfaced error is the first in shard/name
// order, deterministic regardless of which worker failed first. PLC
// actuation (MMS breaker writes) is applied by the receiving IED directly,
// outside the Tx path, so byte-identity across engines additionally assumes
// no two PLCs command the same breaker — which per-substation PLC placement
// gives by construction.
// StepHook observes (and may act on) the range's step loop. step is the
// zero-based index of the step about to run (pre hook) or just completed
// (post hook); now is the step's virtual timestamp. Returning an error aborts
// the step. The deterministic scenario scheduler is implemented as a pair of
// these hooks, which is what keeps event triggering identical across the
// parallel and sequential engines: hooks run strictly between device passes,
// never concurrently with them.
type StepHook func(step int, now time.Time) error

type stepEngine struct {
	shards  []Shard
	workers int
	ieds    map[string]*ied.IED
	plcs    map[string]*plc.PLC
	bus     *kvbus.Bus

	iedOrder []string       // globally sorted; the commit replay order
	iedIdx   map[string]int // IED name -> index into iedOrder/txs
	txs      []kvbus.Tx     // one per IED, reused across steps
}

// newStepEngine builds an engine over the compiled shards. The caller
// (Compile) guarantees workers >= 1; extra workers beyond the job count of
// a phase simply idle.
func newStepEngine(shards []Shard, workers int, ieds map[string]*ied.IED, plcs map[string]*plc.PLC, bus *kvbus.Bus) *stepEngine {
	e := &stepEngine{
		shards:  shards,
		workers: workers,
		ieds:    ieds,
		plcs:    plcs,
		bus:     bus,
		iedIdx:  make(map[string]int, len(ieds)),
	}
	for name := range ieds {
		e.iedOrder = append(e.iedOrder, name)
	}
	sort.Strings(e.iedOrder)
	for i, name := range e.iedOrder {
		e.iedIdx[name] = i
	}
	e.txs = make([]kvbus.Tx, len(e.iedOrder))
	return e
}

// step runs one device-layer pass: parallel IED compute, ordered commit,
// then the PLC scans.
func (e *stepEngine) step(now time.Time) error {
	e.stepIEDs(now)
	return e.scanPLCs(now)
}

// stepSequential is the reference device pass: every IED in sorted order with
// immediate bus writes, then every PLC in shard/name order, reporting the
// first scan error only after all PLCs have scanned.
func (e *stepEngine) stepSequential(now time.Time) error {
	for _, name := range e.iedOrder {
		e.ieds[name].Step(now)
	}
	var firstErr error
	for _, s := range e.shards {
		for _, name := range s.PLCs {
			if err := e.plcs[name].Scan(now); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// stepIEDs is the two-phase IED pass.
func (e *stepEngine) stepIEDs(now time.Time) {
	e.forEach(len(e.shards), func(i int) {
		for _, name := range e.shards[i].IEDs {
			e.ieds[name].StepTx(now, &e.txs[e.iedIdx[name]])
		}
	})
	for i := range e.txs {
		e.txs[i].Commit(e.bus)
	}
}

// scanPLCs runs each shard's PLC scans on the pool and returns the error of
// the first failing PLC in shard/name order (nil when all scans succeed).
func (e *stepEngine) scanPLCs(now time.Time) error {
	if len(e.plcs) == 0 {
		return nil
	}
	errs := make([][]error, len(e.shards))
	e.forEach(len(e.shards), func(i int) {
		s := &e.shards[i]
		if len(s.PLCs) == 0 {
			return
		}
		errs[i] = make([]error, len(s.PLCs))
		for j, name := range s.PLCs {
			errs[i][j] = e.plcs[name].Scan(now)
		}
	})
	for _, shardErrs := range errs {
		for _, err := range shardErrs {
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// forEach runs fn(0..n-1) on the bounded worker pool and waits for all of
// them. With one worker (or one job) it degenerates to an inline loop.
func (e *stepEngine) forEach(n int, fn func(i int)) {
	workers := e.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}
