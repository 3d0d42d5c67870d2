// Package powersim runs the stepped power-system simulation of the cyber range.
//
// The paper couples a one-shot steady-state solver to the cyber side by
// re-running it periodically (e.g. every 100 ms) with the breaker states
// written by virtual IEDs and the load values of a time-series profile
// (§III-B, §III-C). This package implements that loop: a Simulator owns a
// powergrid.Network, applies scheduled scenario events and breaker commands
// read from the kv bus, solves the flow (warm-started from the previous
// step), and publishes measurements back onto the bus for the IEDs to read.
package powersim

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/kvbus"
	"repro/internal/powerflow"
	"repro/internal/powergrid"
)

// EventKind classifies scenario events (Power System Extra Config XML).
type EventKind int

// Scenario event kinds. SetLoadScale multiplies a load's nominal power;
// SetLoadP / SetGenP / SetSGenP override absolute MW; SetSwitch opens or
// closes a breaker; SetLineService forces a line outage or repair.
const (
	SetLoadScale EventKind = iota + 1
	SetLoadP
	SetGenP
	SetSGenP
	SetSwitch
	SetLineService
)

// Event is one timed scenario action.
type Event struct {
	At      time.Duration // simulation-time offset
	Kind    EventKind
	Element string
	Value   float64 // for SetSwitch / SetLineService: >0.5 means closed/in-service
}

// ErrUnknownElement is returned when an event references a missing element.
var ErrUnknownElement = errors.New("powersim: unknown element")

// Options configures a Simulator.
type Options struct {
	Interval       time.Duration // solve period; default 100 ms (paper §III-C)
	EnforceQLimits bool
}

// Simulator steps a network and mirrors state onto a kv bus.
type Simulator struct {
	mu       sync.Mutex
	net      *powergrid.Network
	bus      *kvbus.Bus
	opts     Options
	events   []Event
	applied  int
	solver   *powerflow.Solver
	last     *powerflow.Result
	simTime  time.Duration
	steps    uint64 // successfully solved steps
	failures uint64 // steps whose solve errored (e.g. divergence)
	solveNS  int64  // cumulative successful-solve time, for the scalability experiment
}

// New clones the network and returns a ready simulator. The bus may be shared
// with virtual IEDs, the PLC layer and the SCADA HMI. The simulator owns a
// powerflow.Solver, so consecutive steps with unchanged breaker/switch
// topology stay on the solver's cached warm path.
func New(net *powergrid.Network, bus *kvbus.Bus, opts Options) *Simulator {
	return NewWithSolver(net, bus, opts, nil)
}

// NewWithSolver is New with a caller-supplied solver (nil falls back to a
// fresh one). The compiled-range fork path passes a powerflow.Solver.Fork of
// a prewarmed template here, so the simulator's first solve reuses the
// model's cached topology and symbolic factorization instead of rebuilding
// them. The solver must be private to this simulator (a Fork, not the shared
// template itself): Step serialises on the simulator mutex, not across
// simulators.
func NewWithSolver(net *powergrid.Network, bus *kvbus.Bus, opts Options, solver *powerflow.Solver) *Simulator {
	if opts.Interval <= 0 {
		opts.Interval = 100 * time.Millisecond
	}
	if solver == nil {
		solver = powerflow.NewSolver()
	}
	return &Simulator{net: net.Clone(), bus: bus, opts: opts, solver: solver}
}

// Prewarm runs one power-flow solve without advancing simulation time,
// applying events or publishing to the bus: its only effect is populating the
// solver's topology cache (and symbolic factorizations) for the current grid
// structure. A template simulator prewarms once per model so that every
// forked solver starts on the cache-hit path. Solve errors are returned but
// leave the simulator unchanged; the first real Step will surface the same
// condition.
func (s *Simulator) Prewarm() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.solver.Solve(s.net, powerflow.Options{EnforceQLimits: s.opts.EnforceQLimits})
	return err
}

// ForkSolver returns an isolated powerflow.Solver sharing this simulator's
// cached read-only topology artifacts (see powerflow.Solver.Fork).
func (s *Simulator) ForkSolver() *powerflow.Solver {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.solver.Fork()
}

// Network returns the simulator's (live) network model. Callers must not
// mutate it concurrently with Step; tests use it for assertions.
func (s *Simulator) Network() *powergrid.Network {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.net
}

// Schedule adds scenario events; they are kept sorted by activation time.
func (s *Simulator) Schedule(events ...Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, events...)
	sort.SliceStable(s.events, func(i, j int) bool { return s.events[i].At < s.events[j].At })
	s.applied = 0
	// Events already in the past relative to simTime re-apply on next step;
	// keep a stable cursor by re-scanning from zero.
}

// SimTime returns the current simulation time.
func (s *Simulator) SimTime() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.simTime
}

// LastResult returns the most recent solution (nil before the first step).
func (s *Simulator) LastResult() *powerflow.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// Stats reports the number of successfully solved steps and their mean solve
// time. Failed solves (divergence under a scenario) are excluded so the mean
// measures the healthy 100 ms loop, not iterations-to-divergence; they are
// counted by Failures.
func (s *Simulator) Stats() (steps uint64, meanSolve time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.steps == 0 {
		return 0, 0
	}
	return s.steps, time.Duration(s.solveNS / int64(s.steps))
}

// Failures reports the number of steps whose power-flow solve errored.
func (s *Simulator) Failures() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failures
}

// SolverCacheStats reports the power-flow topology cache's hit/miss counts:
// hits are steps that reused the cached island assignment, Ybus and symbolic
// factorization; misses are rebuilds after a topology change.
func (s *Simulator) SolverCacheStats() (hits, misses uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.solver.CacheStats()
}

// Apply applies one scenario event to the live network model immediately,
// outside the scheduled-event queue. The deterministic scenario scheduler
// uses it for condition-triggered actions whose activation time cannot be
// known in advance; the change is picked up by the next Step's solve. The
// event's At field is ignored.
func (s *Simulator) Apply(ev Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applyEvent(ev)
}

// Step advances simulation time by one interval and solves.
func (s *Simulator) Step() (*powerflow.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.simTime += s.opts.Interval
	return s.stepLocked(s.simTime)
}

// StepAt solves at an explicit simulation time (monotonically increasing).
func (s *Simulator) StepAt(t time.Duration) (*powerflow.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t > s.simTime {
		s.simTime = t
	}
	return s.stepLocked(s.simTime)
}

func (s *Simulator) stepLocked(now time.Duration) (*powerflow.Result, error) {
	if err := s.applyEventsLocked(now); err != nil {
		return nil, err
	}
	s.applyCommandsLocked()

	opts := powerflow.Options{EnforceQLimits: s.opts.EnforceQLimits, WarmStart: s.last}
	start := time.Now()
	res, err := s.solver.Solve(s.net, opts)
	if err != nil {
		s.failures++
		return res, fmt.Errorf("powersim: step at %v: %w", now, err)
	}
	s.solveNS += time.Since(start).Nanoseconds()
	s.steps++
	s.last = res
	s.publishLocked(res)
	return res, nil
}

func (s *Simulator) applyEventsLocked(now time.Duration) error {
	for s.applied < len(s.events) && s.events[s.applied].At <= now {
		ev := s.events[s.applied]
		s.applied++
		if err := s.applyEvent(ev); err != nil {
			return err
		}
	}
	return nil
}

func (s *Simulator) applyEvent(ev Event) error {
	switch ev.Kind {
	case SetLoadScale:
		l := s.net.FindLoad(ev.Element)
		if l == nil {
			return fmt.Errorf("%w: load %q", ErrUnknownElement, ev.Element)
		}
		// SetScaling keeps an explicit 0 meaning "no load" (Pandapower
		// semantics) instead of decaying to the 1.0 unset default.
		l.SetScaling(ev.Value)
	case SetLoadP:
		l := s.net.FindLoad(ev.Element)
		if l == nil {
			return fmt.Errorf("%w: load %q", ErrUnknownElement, ev.Element)
		}
		l.PMW = ev.Value
	case SetGenP:
		g := s.net.FindGen(ev.Element)
		if g == nil {
			return fmt.Errorf("%w: gen %q", ErrUnknownElement, ev.Element)
		}
		g.PMW = ev.Value
	case SetSGenP:
		g := s.net.FindSGen(ev.Element)
		if g == nil {
			return fmt.Errorf("%w: sgen %q", ErrUnknownElement, ev.Element)
		}
		g.PMW = ev.Value
	case SetSwitch:
		sw := s.net.FindSwitch(ev.Element)
		if sw == nil {
			return fmt.Errorf("%w: switch %q", ErrUnknownElement, ev.Element)
		}
		sw.Closed = ev.Value > 0.5
	case SetLineService:
		l := s.net.FindLine(ev.Element)
		if l == nil {
			return fmt.Errorf("%w: line %q", ErrUnknownElement, ev.Element)
		}
		l.InService = ev.Value > 0.5
	default:
		return fmt.Errorf("powersim: unknown event kind %d", ev.Kind)
	}
	return nil
}

// applyCommandsLocked reads breaker commands written by IEDs from the bus.
// The command key is the IED-side "actuator" half of the coupling cache.
func (s *Simulator) applyCommandsLocked() {
	for i := range s.net.Switches {
		sw := &s.net.Switches[i]
		sw.Closed = s.bus.GetBool(kvbus.BreakerCmdKey(s.net.Name, sw.Name), sw.Closed)
	}
}

// publishLocked mirrors the solution onto the bus under the well-known keys.
func (s *Simulator) publishLocked(res *powerflow.Result) {
	name := s.net.Name
	for _, b := range s.net.Buses {
		br := res.Buses[b.Name]
		s.bus.SetFloat(kvbus.BusVoltageKey(name, b.Name), br.VmPU)
		s.bus.SetFloat(kvbus.BusAngleKey(name, b.Name), br.VaDeg)
	}
	for _, l := range s.net.Lines {
		lr := res.Lines[l.Name]
		s.bus.SetFloat(kvbus.LineCurrentKey(name, l.Name), lr.IFromKA)
		s.bus.SetFloat(kvbus.LinePKey(name, l.Name), lr.PFromMW)
		s.bus.SetFloat(kvbus.LineQKey(name, l.Name), lr.QFromMVAr)
	}
	for _, sw := range s.net.Switches {
		s.bus.SetBool(kvbus.BreakerStatusKey(name, sw.Name), sw.Closed)
	}
	for i := range s.net.Loads {
		l := &s.net.Loads[i]
		eff := 0.0
		if l.InService {
			if br, ok := res.Buses[l.Bus]; ok && br.Energized {
				eff = l.PMW * l.EffectiveScaling()
			}
		}
		s.bus.SetFloat(kvbus.LoadPKey(name, l.Name), eff)
	}
	for _, g := range s.net.Gens {
		p := 0.0
		if g.InService {
			p = g.PMW
		}
		s.bus.SetFloat(kvbus.GenPKey(name, g.Name), p)
	}
}

// Run steps the simulation in real time until ctx is cancelled. Each tick
// advances simulation time by the configured interval. Solve errors (e.g. a
// scenario-induced divergence) are delivered to onErr if non-nil and the loop
// continues, matching the paper's interactive, operator-in-the-loop usage.
func (s *Simulator) Run(ctx context.Context, onErr func(error)) {
	ticker := time.NewTicker(s.opts.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			if _, err := s.Step(); err != nil && onErr != nil {
				onErr(err)
			}
		}
	}
}
