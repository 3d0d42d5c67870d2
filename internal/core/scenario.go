package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/attack"
	"repro/internal/ids"
	"repro/internal/mms"
	"repro/internal/modbus"
	"repro/internal/netem"
	"repro/internal/sgmlconf"
)

// ErrScenario is returned when a scenario cannot be validated against the
// compiled range, or cannot be run.
var ErrScenario = errors.New("core: invalid scenario")

// Scenario is a declarative, reproducible experiment: attacker placements
// plus a list of typed events, each pairing a trigger (step index, simulated
// time offset, or an observed condition) with an action (a power fault, a
// network impairment, an attack step, or sensor deployment). RunScenario
// executes it deterministically against a compiled range.
type Scenario struct {
	Name string
	// Steps is the number of simulation intervals to run. Zero derives a
	// default: five steps past the last timed event (at least ten).
	Steps int
	// Seed is the default replay seed (WithSeed overrides; zero means 1).
	// It drives every randomised choice of the run — attacker MAC
	// derivation, port-scan order, the fabric's loss generator — so a fixed
	// (model, scenario, seed) triple replays identically.
	Seed int64
	// Attackers are extra hosts attached to named switches before the range
	// starts (the "own devices connected to the cyber range" usage, §IV-B).
	Attackers []AttackerSpec
	Events    []ScenarioEvent
}

// AttackerSpec places an attacker host on the emulated fabric.
type AttackerSpec struct {
	Name   string
	Switch string     // switch to cable into (e.g. "sw-TransLAN")
	IP     netem.IPv4 // required
	MAC    netem.MAC  // zero derives a deterministic MAC from the run seed
}

// ScenarioEvent pairs a trigger with an action.
type ScenarioEvent struct {
	Name    string // optional; defaults to "event-<n>"
	Trigger Trigger
	Action  Action
}

// ---------------------------------------------------------------------------
// Triggers
// ---------------------------------------------------------------------------

type triggerKind int

const (
	trigAtStep triggerKind = iota
	trigAfter
	trigBreakerOpen
	trigBreakerClose
	trigAlert
	trigDeadBuses
)

// Trigger decides when an event fires. Timed triggers (At, After) resolve to
// a step index up front; condition triggers are evaluated at every step
// boundary against committed state, and fire at the next boundary after the
// condition first holds (plus any Plus delay). Both paths are evaluated in
// the step loop's hooks, never concurrently with a step, so triggering is
// deterministic under either engine.
type Trigger struct {
	kind    triggerKind
	step    int
	offset  time.Duration
	element string
	alert   ids.AlertKind
	count   int
	delay   int
}

// At triggers at the given zero-based step index.
func At(step int) Trigger { return Trigger{kind: trigAtStep, step: step} }

// After triggers at the first step whose start is >= the given simulated-time
// offset from the run's beginning (offset / interval, rounded up).
func After(offset time.Duration) Trigger { return Trigger{kind: trigAfter, offset: offset} }

// OnBreakerOpen triggers at the step boundary after the named breaker or
// switch is first observed open.
func OnBreakerOpen(breaker string) Trigger {
	return Trigger{kind: trigBreakerOpen, element: breaker}
}

// OnBreakerClose triggers at the step boundary after the named breaker or
// switch is first observed closed.
func OnBreakerClose(breaker string) Trigger {
	return Trigger{kind: trigBreakerClose, element: breaker}
}

// OnAlert triggers at the step boundary after any deployed IDS sensor has
// raised at least one alert of the given kind.
func OnAlert(kind ids.AlertKind) Trigger { return Trigger{kind: trigAlert, alert: kind} }

// OnDeadBuses triggers at the step boundary after the solved grid first
// reports at least n de-energised buses.
func OnDeadBuses(n int) Trigger { return Trigger{kind: trigDeadBuses, count: n} }

// Plus delays the trigger by extra steps after it would otherwise fire.
func (t Trigger) Plus(steps int) Trigger {
	t.delay += steps
	return t
}

// describe renders the trigger for reports and validation errors.
func (t Trigger) describe() string {
	var s string
	switch t.kind {
	case trigAtStep:
		s = fmt.Sprintf("at step %d", t.step)
	case trigAfter:
		s = fmt.Sprintf("after %v", t.offset)
	case trigBreakerOpen:
		s = fmt.Sprintf("on breaker %s open", t.element)
	case trigBreakerClose:
		s = fmt.Sprintf("on breaker %s close", t.element)
	case trigAlert:
		s = fmt.Sprintf("on alert %s", t.alert)
	case trigDeadBuses:
		s = fmt.Sprintf("on >=%d dead buses", t.count)
	}
	if t.delay > 0 {
		s += fmt.Sprintf(" +%d", t.delay)
	}
	return s
}

// ---------------------------------------------------------------------------
// Actions
// ---------------------------------------------------------------------------

// Action is one typed scenario action. Implementations cover the power model
// (PowerStep and its sugar constructors), network impairments (LinkDown/
// LinkUp/LinkFlap/LinkLoss/LinkLatency), attack steps (PortScan,
// FalseCommand, StartMITM, StopMITM) and sensor deployment (DeployIDS).
type Action interface {
	describe() string
	validate(v *scenarioValidator) error
	apply(rt *scenarioRun, ev *eventState) (detail string, err error)
}

// --- power actions ---------------------------------------------------------

// PowerStep is the generic power-model action, in the shared kind vocabulary
// of the supplementary XML ("loadScale", "loadP", "genP", "sgenP", "switch",
// "lineService"). The sugar constructors below cover the common cases.
type PowerStep struct {
	Kind    string
	Element string
	Value   float64
}

// OpenBreaker opens the named breaker/switch in the power model.
func OpenBreaker(breaker string) PowerStep {
	return PowerStep{Kind: "switch", Element: breaker, Value: 0}
}

// CloseBreaker closes the named breaker/switch in the power model.
func CloseBreaker(breaker string) PowerStep {
	return PowerStep{Kind: "switch", Element: breaker, Value: 1}
}

// ScaleLoad multiplies the named load's nominal power by factor (0 sheds it).
func ScaleLoad(load string, factor float64) PowerStep {
	return PowerStep{Kind: "loadScale", Element: load, Value: factor}
}

// SetLoadMW overrides the named load's absolute active power.
func SetLoadMW(load string, mw float64) PowerStep {
	return PowerStep{Kind: "loadP", Element: load, Value: mw}
}

// SetGenMW overrides the named generator's active power.
func SetGenMW(gen string, mw float64) PowerStep {
	return PowerStep{Kind: "genP", Element: gen, Value: mw}
}

// SetSGenMW overrides the named static generator's active power.
func SetSGenMW(sgen string, mw float64) PowerStep {
	return PowerStep{Kind: "sgenP", Element: sgen, Value: mw}
}

// FailLine forces the named line out of service (a line fault).
func FailLine(line string) PowerStep {
	return PowerStep{Kind: "lineService", Element: line, Value: 0}
}

// RestoreLine returns the named line to service.
func RestoreLine(line string) PowerStep {
	return PowerStep{Kind: "lineService", Element: line, Value: 1}
}

func (a PowerStep) describe() string {
	return fmt.Sprintf("power %s %s=%g", a.Kind, a.Element, a.Value)
}

func (a PowerStep) validate(v *scenarioValidator) error {
	return validatePowerAction(v.r.Grid, a.Kind, a.Element)
}

func (a PowerStep) apply(rt *scenarioRun, _ *eventState) (string, error) {
	spec := EventSpec{Kind: a.Kind, Element: a.Element, Value: a.Value}
	ev, err := spec.SimEvent()
	if err != nil {
		return "", err
	}
	if err := rt.r.Sim.Apply(ev); err != nil {
		return "", err
	}
	return fmt.Sprintf("%s %s=%g applied", a.Kind, a.Element, a.Value), nil
}

// --- network impairments ---------------------------------------------------

func validateLink(v *scenarioValidator, a, b string) error {
	if v.r.Net.LinkBetween(a, b) == nil {
		return fmt.Errorf("no link between %q and %q", a, b)
	}
	return nil
}

// LinkDown pulls the cable between two named devices (host or switch).
type LinkDown struct{ A, B string }

func (a LinkDown) describe() string                    { return fmt.Sprintf("link %s<->%s down", a.A, a.B) }
func (a LinkDown) validate(v *scenarioValidator) error { return validateLink(v, a.A, a.B) }
func (a LinkDown) apply(rt *scenarioRun, _ *eventState) (string, error) {
	rt.r.Net.LinkBetween(a.A, a.B).SetUp(false)
	return "link down", nil
}

// LinkUp restores the cable between two named devices.
type LinkUp struct{ A, B string }

func (a LinkUp) describe() string                    { return fmt.Sprintf("link %s<->%s up", a.A, a.B) }
func (a LinkUp) validate(v *scenarioValidator) error { return validateLink(v, a.A, a.B) }
func (a LinkUp) apply(rt *scenarioRun, _ *eventState) (string, error) {
	rt.r.Net.LinkBetween(a.A, a.B).SetUp(true)
	return "link up", nil
}

// LinkFlap pulls the cable for DownSteps simulation steps, then restores it.
type LinkFlap struct {
	A, B      string
	DownSteps int
}

func (a LinkFlap) describe() string {
	return fmt.Sprintf("link %s<->%s flap (%d steps)", a.A, a.B, a.DownSteps)
}
func (a LinkFlap) validate(v *scenarioValidator) error {
	if a.DownSteps < 1 {
		return fmt.Errorf("flap DownSteps %d, need >= 1", a.DownSteps)
	}
	return validateLink(v, a.A, a.B)
}
func (a LinkFlap) apply(rt *scenarioRun, ev *eventState) (string, error) {
	l := rt.r.Net.LinkBetween(a.A, a.B)
	l.SetUp(false)
	rt.scheduleRestore(ev.firedAt+a.DownSteps, func() { l.SetUp(true) })
	return fmt.Sprintf("down until step %d", ev.firedAt+a.DownSteps), nil
}

// LinkLoss sets the per-frame loss rate (0..1) on the link between two
// devices. The loss draws come from the fabric's seeded generator, so the
// draw sequence replays with the seed; which frame consumes which draw still
// depends on delivery-goroutine scheduling, so byte-identical RunReport
// replay is only guaranteed for scenarios whose deterministic outcomes do
// not ride on lossy links (impair GOOSE/SV telemetry freely; avoid loss on
// links carrying the attack path or PLC/SCADA polls you assert on).
type LinkLoss struct {
	A, B string
	Rate float64
}

func (a LinkLoss) describe() string {
	return fmt.Sprintf("link %s<->%s loss=%.2f", a.A, a.B, a.Rate)
}
func (a LinkLoss) validate(v *scenarioValidator) error {
	if a.Rate < 0 || a.Rate > 1 {
		return fmt.Errorf("loss rate %v outside [0,1]", a.Rate)
	}
	return validateLink(v, a.A, a.B)
}
func (a LinkLoss) apply(rt *scenarioRun, _ *eventState) (string, error) {
	rt.r.Net.LinkBetween(a.A, a.B).SetLossRate(a.Rate)
	return fmt.Sprintf("loss rate %.2f", a.Rate), nil
}

// LinkLatency sets the one-way propagation delay on the link between two
// devices.
type LinkLatency struct {
	A, B    string
	Latency time.Duration
}

func (a LinkLatency) describe() string {
	return fmt.Sprintf("link %s<->%s latency=%v", a.A, a.B, a.Latency)
}
func (a LinkLatency) validate(v *scenarioValidator) error {
	if a.Latency < 0 {
		return fmt.Errorf("negative latency %v", a.Latency)
	}
	return validateLink(v, a.A, a.B)
}
func (a LinkLatency) apply(rt *scenarioRun, _ *eventState) (string, error) {
	rt.r.Net.LinkBetween(a.A, a.B).SetLatency(a.Latency)
	return fmt.Sprintf("latency %v", a.Latency), nil
}

// --- attack steps ----------------------------------------------------------

// DefaultScanPorts is the port list a PortScan probes when none is given.
var DefaultScanPorts = []uint16{21, 22, 23, 80, 102, 443, 502, 2404}

// PortScan runs a TCP connect scan from an attacker against a named node
// (the "Nmap on a virtual node" reconnaissance of §IV-B). The probe order is
// shuffled with the run's seeded RNG.
type PortScan struct {
	Attacker string
	Target   string
	Ports    []uint16 // nil uses DefaultScanPorts
}

func (a PortScan) describe() string { return fmt.Sprintf("port scan %s -> %s", a.Attacker, a.Target) }
func (a PortScan) validate(v *scenarioValidator) error {
	if err := v.attacker(a.Attacker); err != nil {
		return err
	}
	return v.node(a.Target)
}
func (a PortScan) apply(rt *scenarioRun, ev *eventState) (string, error) {
	host := rt.attackers[a.Attacker]
	ports := append([]uint16(nil), a.Ports...)
	if len(ports) == 0 {
		ports = append(ports, DefaultScanPorts...)
	}
	rt.rng.Shuffle(len(ports), func(i, j int) { ports[i], ports[j] = ports[j], ports[i] })
	results := attack.ScanPorts(host, rt.r.Built.AddrOf[a.Target], ports)
	openPorts := make([]int, 0, len(results))
	for _, res := range results {
		if res.Open {
			openPorts = append(openPorts, int(res.Port))
		}
	}
	sort.Ints(openPorts)
	open := make([]string, len(openPorts))
	for i, p := range openPorts {
		open[i] = fmt.Sprintf("%d", p)
	}
	rt.expect(ev, ids.AlertPortScan, host.IP().String())
	return fmt.Sprintf("%d ports probed, open: [%s]", len(ports), strings.Join(open, " ")), nil
}

// FalseCommand injects a standard-compliant MMS write from an attacker into
// a named IED (the false-command-injection case study, §IV-B). Value helpers:
// mms.NewBool / mms.NewFloat.
type FalseCommand struct {
	Attacker string
	Target   string
	Ref      string // MMS object reference, e.g. "LD0/XCBR1.Pos.Oper"
	Value    mms.Value
}

func (a FalseCommand) describe() string {
	return fmt.Sprintf("false command %s -> %s %s=%s", a.Attacker, a.Target, a.Ref, a.Value)
}
func (a FalseCommand) validate(v *scenarioValidator) error {
	if err := v.attacker(a.Attacker); err != nil {
		return err
	}
	if !mms.ObjectReference(a.Ref).Valid() {
		return fmt.Errorf("invalid MMS reference %q", a.Ref)
	}
	return v.node(a.Target)
}
func (a FalseCommand) apply(rt *scenarioRun, ev *eventState) (string, error) {
	host := rt.attackers[a.Attacker]
	fci := rt.fcis[a.Attacker]
	if fci == nil {
		fci = attack.NewFCI(host)
		rt.fcis[a.Attacker] = fci
	}
	if err := fci.InjectCommand(rt.r.Built.AddrOf[a.Target], 0, mms.ObjectReference(a.Ref), a.Value); err != nil {
		return "", err
	}
	// Ground truth only counts injections that reached the wire: a failed
	// attack must not drag recall down for an alert that could never fire.
	rt.expect(ev, ids.AlertUnauthorizedWrite, host.IP().String())
	return fmt.Sprintf("injected %s=%s", a.Ref, a.Value), nil
}

// StartMITM mounts an ARP-spoofing man-in-the-middle between two victims
// from an attacker (Fig 6). ScaleFloats != 0 installs the MMS float rewrite
// with that factor (1.0 = pure interception); Blackhole drops intercepted
// traffic instead. ForSteps > 0 auto-withdraws after that many steps;
// otherwise the MITM runs until a StopMITM event or the end of the run.
type StartMITM struct {
	Attacker    string
	VictimA     string
	VictimB     string
	ScaleFloats float64
	Blackhole   bool
	ForSteps    int
}

func (a StartMITM) describe() string {
	return fmt.Sprintf("mitm %s between %s and %s", a.Attacker, a.VictimA, a.VictimB)
}
func (a StartMITM) validate(v *scenarioValidator) error {
	if err := v.attacker(a.Attacker); err != nil {
		return err
	}
	if err := v.node(a.VictimA); err != nil {
		return err
	}
	if err := v.node(a.VictimB); err != nil {
		return err
	}
	if a.ForSteps < 0 {
		return fmt.Errorf("negative ForSteps %d", a.ForSteps)
	}
	return nil
}
func (a StartMITM) apply(rt *scenarioRun, ev *eventState) (string, error) {
	host := rt.attackers[a.Attacker]
	if rt.mitms[a.Attacker] != nil {
		return "", fmt.Errorf("attacker %q already has an active MITM", a.Attacker)
	}
	m := attack.NewMITM(host, rt.r.Built.AddrOf[a.VictimA], rt.r.Built.AddrOf[a.VictimB])
	if a.Blackhole {
		m.SetBlackhole(true)
	} else if a.ScaleFloats != 0 {
		m.SetPayloadTamper(attack.ScaleMMSFloats(a.ScaleFloats))
	}
	if err := m.Start(rt.ctx); err != nil {
		return "", err
	}
	// As with FalseCommand: only a mounted MITM (poisoning already sent
	// during Start) becomes ground truth.
	rt.expect(ev, ids.AlertARPSpoof, host.MAC().String())
	rt.mitms[a.Attacker] = m
	detail := "mounted"
	if a.ForSteps > 0 {
		until := ev.firedAt + a.ForSteps
		rt.scheduleRestore(until, func() {
			if rt.mitms[a.Attacker] == m {
				m.Stop()
				delete(rt.mitms, a.Attacker)
			}
		})
		detail = fmt.Sprintf("mounted until step %d", until)
	}
	return detail, nil
}

// StopMITM withdraws an attacker's active MITM, healing the victims' ARP
// caches.
type StopMITM struct{ Attacker string }

func (a StopMITM) describe() string                    { return fmt.Sprintf("stop mitm %s", a.Attacker) }
func (a StopMITM) validate(v *scenarioValidator) error { return v.attacker(a.Attacker) }
func (a StopMITM) apply(rt *scenarioRun, _ *eventState) (string, error) {
	m := rt.mitms[a.Attacker]
	if m == nil {
		return "", fmt.Errorf("attacker %q has no active MITM", a.Attacker)
	}
	m.Stop()
	delete(rt.mitms, a.Attacker)
	return "withdrawn", nil
}

// ModbusTamper injects a Modbus/TCP write from an attacker into a PLC's
// northbound server — the logic-manipulation counterpart of FalseCommand.
// Where FalseCommand speaks IEC 61850 MMS to an IED, ModbusTamper speaks the
// SCADA protocol to the PLC layer (internal/modbus against the ST runtime):
// a coil write lands in the PLC's pending-command queue and is applied by its
// next scan, so a tampered command coil drives the control logic exactly as a
// SCADA operator action would. Table selects what is written: "coil" (Value
// != 0 asserts the coil) or "holding" (Value is the register word).
//
// The write is issued synchronously inside the firing step's pre-hook, so its
// effect lands at a deterministic scan boundary under either engine.
type ModbusTamper struct {
	Attacker string
	PLC      string // target PLC by its config name (e.g. "CPLC")
	Table    string // "coil" (default) or "holding"
	Address  uint16
	Value    uint16
}

// TamperCoil builds a ModbusTamper that forces a PLC coil.
func TamperCoil(attacker, plcName string, addr uint16, on bool) ModbusTamper {
	var v uint16
	if on {
		v = 1
	}
	return ModbusTamper{Attacker: attacker, PLC: plcName, Table: "coil", Address: addr, Value: v}
}

// TamperRegister builds a ModbusTamper that overwrites a PLC holding register.
func TamperRegister(attacker, plcName string, addr, value uint16) ModbusTamper {
	return ModbusTamper{Attacker: attacker, PLC: plcName, Table: "holding", Address: addr, Value: value}
}

func (a ModbusTamper) table() string {
	if a.Table == "" {
		return "coil"
	}
	return a.Table
}

func (a ModbusTamper) describe() string {
	return fmt.Sprintf("modbus tamper %s -> %s %s[%d]=%d", a.Attacker, a.PLC, a.table(), a.Address, a.Value)
}

// validate resolves the tamper against the compiled model's PLC inventory.
// Failures wrap ErrModel (the target is a model element, like a power step's),
// and the scenario wrapper adds the event name on top.
func (a ModbusTamper) validate(v *scenarioValidator) error {
	if err := v.attacker(a.Attacker); err != nil {
		return err
	}
	p, ok := v.r.PLCs[a.PLC]
	if !ok {
		return fmt.Errorf("%w: modbus tamper target %q is not a PLC of the model", ErrModel, a.PLC)
	}
	cfg := p.Config()
	switch a.table() {
	case "coil":
		if int(a.Address) >= cfg.Coils {
			return fmt.Errorf("%w: modbus tamper coil %d outside PLC %q table (0..%d)",
				ErrModel, a.Address, a.PLC, cfg.Coils-1)
		}
	case "holding":
		if int(a.Address) >= cfg.Holding {
			return fmt.Errorf("%w: modbus tamper holding register %d outside PLC %q table (0..%d)",
				ErrModel, a.Address, a.PLC, cfg.Holding-1)
		}
	default:
		return fmt.Errorf("%w: modbus tamper table %q (want coil or holding)", ErrModel, a.Table)
	}
	return nil
}

func (a ModbusTamper) apply(rt *scenarioRun, ev *eventState) (string, error) {
	host := rt.attackers[a.Attacker]
	p := rt.r.PLCs[a.PLC]
	cli, err := modbus.DialClient(host, p.Host().IP(), p.Config().ModbusPort, 0)
	if err != nil {
		return "", err
	}
	defer cli.Close()
	switch a.table() {
	case "coil":
		err = cli.WriteCoil(a.Address, a.Value != 0)
	case "holding":
		err = cli.WriteRegister(a.Address, a.Value)
	}
	if err != nil {
		return "", err
	}
	// The IDS advertises coverage of unauthorized control writes, so a
	// tampered PLC command is ground truth for that alert kind — but the
	// sensor only inspects MMS towards port 102, never Modbus towards 502.
	// This is the deliberate blind spot the scenario search hunts.
	rt.expect(ev, ids.AlertUnauthorizedWrite, host.IP().String())
	return fmt.Sprintf("%s[%d]=%d written", a.table(), a.Address, a.Value), nil
}

// --- sensor deployment -----------------------------------------------------

// DeployIDS attaches a passive network IDS sensor to every link of the
// fabric (blue-team instrumentation). AuthorizedWriters are node names whose
// MMS control writes are legitimate (typically the SCADA host and PLCs).
type DeployIDS struct {
	Name              string // sensor name in the report; defaults to "ids"
	AuthorizedWriters []string
	PortScanThreshold int // default 10 (the sensor's default)
}

func (a DeployIDS) describe() string { return fmt.Sprintf("deploy IDS %q", a.sensorName()) }
func (a DeployIDS) sensorName() string {
	if a.Name == "" {
		return "ids"
	}
	return a.Name
}
func (a DeployIDS) validate(v *scenarioValidator) error {
	if a.PortScanThreshold < 0 {
		return fmt.Errorf("negative port-scan threshold")
	}
	for _, w := range a.AuthorizedWriters {
		if err := v.node(w); err != nil {
			return err
		}
	}
	if v.sensorNames[a.sensorName()] {
		return fmt.Errorf("duplicate sensor name %q", a.sensorName())
	}
	v.sensorNames[a.sensorName()] = true
	return nil
}
func (a DeployIDS) apply(rt *scenarioRun, _ *eventState) (string, error) {
	writers := make([]netem.IPv4, 0, len(a.AuthorizedWriters))
	for _, w := range a.AuthorizedWriters {
		writers = append(writers, rt.r.Built.AddrOf[w])
	}
	s := ids.New(ids.Options{AuthorizedWriters: writers, PortScanThreshold: a.PortScanThreshold})
	s.SetStepFunc(func() int { return int(rt.stepNow.Load()) })
	s.Attach(rt.r.Net)
	rt.sensors = append(rt.sensors, deployedSensor{name: a.sensorName(), s: s})
	return fmt.Sprintf("tapping all links, %d authorized writers", len(writers)), nil
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

type scenarioValidator struct {
	r           *CyberRange
	attackers   map[string]bool
	sensorNames map[string]bool
}

func (v *scenarioValidator) attacker(name string) error {
	if !v.attackers[name] {
		return fmt.Errorf("undeclared attacker %q", name)
	}
	return nil
}

func (v *scenarioValidator) node(name string) error {
	if _, ok := v.r.Built.AddrOf[name]; !ok {
		return fmt.Errorf("unknown node %q", name)
	}
	return nil
}

// validate checks the scenario against the compiled range: every referenced
// element, link, node, attacker and alert kind must resolve, so a broken
// scenario fails before the range starts rather than mid-engagement.
func (sc *Scenario) validate(r *CyberRange) error {
	v := &scenarioValidator{
		r:           r,
		attackers:   make(map[string]bool, len(sc.Attackers)),
		sensorNames: make(map[string]bool),
	}
	for i := range sc.Attackers {
		a := &sc.Attackers[i]
		if a.Name == "" {
			return fmt.Errorf("%w: attacker %d has no name", ErrScenario, i)
		}
		if v.attackers[a.Name] {
			return fmt.Errorf("%w: duplicate attacker %q", ErrScenario, a.Name)
		}
		if _, exists := r.Built.Hosts[a.Name]; exists {
			return fmt.Errorf("%w: attacker %q collides with an existing node", ErrScenario, a.Name)
		}
		if _, ok := r.Built.Switches[a.Switch]; !ok {
			return fmt.Errorf("%w: attacker %q: unknown switch %q", ErrScenario, a.Name, a.Switch)
		}
		if a.IP.IsZero() {
			return fmt.Errorf("%w: attacker %q has no IP", ErrScenario, a.Name)
		}
		v.attackers[a.Name] = true
	}
	seen := make(map[string]bool, len(sc.Events))
	for i := range sc.Events {
		ev := &sc.Events[i]
		if seen[ev.Name] {
			return fmt.Errorf("%w: duplicate event name %q", ErrScenario, ev.Name)
		}
		seen[ev.Name] = true
		if ev.Action == nil {
			return fmt.Errorf("%w: event %q has no action", ErrScenario, ev.Name)
		}
		if err := sc.validateTrigger(r, ev.Trigger); err != nil {
			return fmt.Errorf("%w: event %q: %v", ErrScenario, ev.Name, err)
		}
		// Double-wrap so both sentinels survive: a failed action validation is
		// always ErrScenario, and actions that resolve model elements (power
		// steps via validatePowerAction, ModbusTamper via the PLC inventory)
		// additionally surface ErrModel through the chain.
		if err := ev.Action.validate(v); err != nil {
			return fmt.Errorf("%w: event %q: %w", ErrScenario, ev.Name, err)
		}
	}
	return nil
}

func (sc *Scenario) validateTrigger(r *CyberRange, t Trigger) error {
	if t.delay < 0 {
		return fmt.Errorf("negative trigger delay")
	}
	switch t.kind {
	case trigAtStep:
		if t.step < 0 {
			return fmt.Errorf("negative trigger step %d", t.step)
		}
	case trigAfter:
		if t.offset < 0 {
			return fmt.Errorf("negative trigger offset %v", t.offset)
		}
	case trigBreakerOpen, trigBreakerClose:
		if r.Grid.FindSwitch(t.element) == nil {
			return fmt.Errorf("trigger breaker/switch %q not in the power model", t.element)
		}
	case trigAlert:
		switch t.alert {
		case ids.AlertARPSpoof, ids.AlertUnauthorizedWrite, ids.AlertGooseAnomaly, ids.AlertPortScan:
		default:
			return fmt.Errorf("unknown alert kind %q", t.alert)
		}
	case trigDeadBuses:
		if t.count < 1 {
			return fmt.Errorf("dead-bus threshold %d, need >= 1", t.count)
		}
	}
	return nil
}

// ValidateScenario resolves a scenario against a compiled range without
// running it: every referenced element, link, node, attacker, PLC and alert
// kind must exist. It is the same check RunScenario performs before starting
// the range, exposed so callers (the scenario search's mutation engine, CLI
// dry runs) can reject a broken candidate without paying for a fork or a run.
// Errors wrap ErrScenario; actions that resolve model elements (power steps,
// ModbusTamper) additionally wrap ErrModel.
func ValidateScenario(r *CyberRange, sc *Scenario) error {
	norm, err := sc.normalized(r.interval)
	if err != nil {
		return err
	}
	return norm.validate(r)
}

// normalized returns a defaulted copy: event names filled in, timed triggers
// resolved to step indices, and the step budget derived when unset.
func (sc *Scenario) normalized(interval time.Duration) (*Scenario, error) {
	out := *sc
	out.Events = append([]ScenarioEvent(nil), sc.Events...)
	out.Attackers = append([]AttackerSpec(nil), sc.Attackers...)
	lastTimed := 0
	for i := range out.Events {
		ev := &out.Events[i]
		if ev.Name == "" {
			ev.Name = fmt.Sprintf("event-%d", i+1)
		}
		if ev.Trigger.kind == trigAfter {
			steps := int((ev.Trigger.offset + interval - 1) / interval)
			ev.Trigger = Trigger{kind: trigAtStep, step: steps, delay: ev.Trigger.delay}
		}
		if ev.Trigger.kind == trigAtStep {
			if fireAt := ev.Trigger.step + ev.Trigger.delay; fireAt > lastTimed {
				lastTimed = fireAt
			}
		}
	}
	if out.Steps <= 0 {
		out.Steps = lastTimed + 5
		if out.Steps < 10 {
			out.Steps = 10
		}
	}
	return &out, nil
}

// ---------------------------------------------------------------------------
// Deterministic scheduler
// ---------------------------------------------------------------------------

type eventState struct {
	ev      *ScenarioEvent
	outcome *EventOutcome
	fired   bool
	// fireAt is the step whose pre-hook fires the event; -1 while a
	// condition trigger has not been satisfied yet.
	fireAt  int
	firedAt int
}

type deployedSensor struct {
	name string
	s    *ids.Sensor
}

type restore struct {
	at int
	fn func()
}

type scenarioRun struct {
	r   *CyberRange
	sc  *Scenario
	cfg optionSet
	ctx context.Context
	rng *rand.Rand

	stepNow   atomic.Int64 // current step, read by sensor alert stamping
	attackers map[string]*netem.Host
	fcis      map[string]*attack.FCI
	mitms     map[string]*attack.MITM
	sensors   []deployedSensor
	events    []*eventState
	restores  []restore
	report    *RunReport
}

// RunScenario executes a scenario against a compiled (not yet started) range
// and returns the structured report. The scheduler is woven into the range's
// step loop via the pre/post step hooks, so events trigger at identical
// points whichever engine steps the range; the seeded RNG makes every
// randomised choice replayable. The range is left started (callers
// still own Stop); scenario-started MITMs are withdrawn before returning.
func RunScenario(ctx context.Context, r *CyberRange, sc *Scenario, opts ...RunOption) (*RunReport, error) {
	cfg := optionSet{seed: sc.Seed}
	applyRun(opts, &cfg)
	if cfg.seed == 0 {
		cfg.seed = 1
	}
	if r.started {
		return nil, fmt.Errorf("%w: range already started", ErrScenario)
	}
	norm, err := sc.normalized(r.interval)
	if err != nil {
		return nil, err
	}
	if err := norm.validate(r); err != nil {
		return nil, err
	}

	rt := &scenarioRun{
		r: r, sc: norm, cfg: cfg, ctx: ctx,
		rng:       rand.New(rand.NewSource(cfg.seed)),
		attackers: make(map[string]*netem.Host),
		fcis:      make(map[string]*attack.FCI),
		mitms:     make(map[string]*attack.MITM),
		report: &RunReport{
			Scenario: norm.Name, Seed: cfg.seed, Steps: norm.Steps,
			Interval: r.interval,
		},
	}
	r.Net.SeedRand(uint64(cfg.seed))

	for i := range norm.Attackers {
		a := &norm.Attackers[i]
		mac := a.MAC
		if mac == (netem.MAC{}) {
			// Locally-administered unicast MAC derived from the seeded RNG.
			mac = netem.MAC{0x02, 0x5c}
			for j := 2; j < 6; j++ {
				mac[j] = byte(rt.rng.Intn(256))
			}
		}
		host, err := r.Built.AttachHost(a.Name, mac, a.IP, a.Switch)
		if err != nil {
			return nil, fmt.Errorf("%w: attacker %q: %v", ErrScenario, a.Name, err)
		}
		rt.attackers[a.Name] = host
	}

	rt.report.Events = make([]EventOutcome, len(norm.Events))
	rt.events = make([]*eventState, len(norm.Events))
	for i := range norm.Events {
		ev := &norm.Events[i]
		rt.report.Events[i] = EventOutcome{Event: ev.Name, Action: ev.Action.describe(), Step: -1}
		st := &eventState{ev: ev, outcome: &rt.report.Events[i], fireAt: -1}
		if ev.Trigger.kind == trigAtStep {
			st.fireAt = ev.Trigger.step + ev.Trigger.delay
		}
		rt.events[i] = st
	}

	r.SetStepHooks(rt.preStep, rt.postStep)
	defer r.SetStepHooks(nil, nil)
	if err := r.Start(ctx, false); err != nil {
		return nil, err
	}

	stepFn := r.StepAll
	if cfg.sequential {
		stepFn = r.StepAllSequential
	}
	now := time.Now()
	for i := 0; i < norm.Steps; i++ {
		if err := ctx.Err(); err != nil {
			rt.report.Err = fmt.Sprintf("run cancelled at step %d", i)
			break
		}
		if cfg.maxSteps > 0 && i >= cfg.maxSteps {
			// A deterministic budget abort (WithMaxSteps): the run asked for
			// more steps than its variant allows.
			rt.report.Err = fmt.Sprintf("step budget %d exhausted at step %d", cfg.maxSteps, i)
			break
		}
		if cfg.stepProbe != nil {
			// Fault-injection seam (campaign WithRunProbe): may error, block
			// on ctx, or panic. Runs before the step so an injected fault
			// lands at a deterministic point.
			if err := cfg.stepProbe(ctx, i); err != nil {
				rt.report.Err = fmt.Sprintf("step %d: %v", i, err)
				break
			}
		}
		now = now.Add(r.interval)
		if err := stepFn(now); err != nil {
			rt.report.Err = fmt.Sprintf("step %d: %v", i, err)
			break
		}
	}

	rt.teardown()
	rt.finish()
	return rt.report, nil
}

// scheduleRestore queues fn to run at the given step's pre-hook (used by
// self-reverting actions: link flaps, bounded MITMs).
func (rt *scenarioRun) scheduleRestore(at int, fn func()) {
	rt.restores = append(rt.restores, restore{at: at, fn: fn})
}

// expect registers an injected-attack ground-truth entry: the alert kind and
// source the IDS layer should raise for the firing event.
func (rt *scenarioRun) expect(ev *eventState, kind ids.AlertKind, source string) {
	rt.report.Truth = append(rt.report.Truth, TruthEntry{
		Event: ev.ev.Name, Expect: string(kind), Source: source, DetectedStep: -1,
	})
}

// preStep is the scheduler's firing half: restores first, then every due
// event in declaration order, before the step's physical solve.
func (rt *scenarioRun) preStep(step int, _ time.Time) error {
	rt.stepNow.Store(int64(step))
	if len(rt.restores) > 0 {
		kept := rt.restores[:0]
		for _, rs := range rt.restores {
			if rs.at <= step {
				rs.fn()
			} else {
				kept = append(kept, rs)
			}
		}
		rt.restores = kept
	}
	for _, st := range rt.events {
		if st.fired || st.fireAt < 0 || st.fireAt > step {
			continue
		}
		st.fired = true
		st.firedAt = step
		st.outcome.Fired = true
		st.outcome.Step = step
		detail, err := st.ev.Action.apply(rt, st)
		st.outcome.Detail = detail
		if err != nil {
			st.outcome.Err = err.Error()
		}
	}
	return nil
}

// postStep is the scheduler's observing half: arm condition triggers against
// the step's committed state and poll ground-truth detection.
func (rt *scenarioRun) postStep(step int, _ time.Time) error {
	for _, st := range rt.events {
		if st.fired || st.fireAt >= 0 {
			continue
		}
		if rt.conditionHolds(st.ev.Trigger) {
			st.fireAt = step + 1 + st.ev.Trigger.delay
		}
	}
	if len(rt.sensors) > 0 {
		for i := range rt.report.Truth {
			tr := &rt.report.Truth[i]
			if tr.Detected {
				continue
			}
			if rt.alertSeen(ids.AlertKind(tr.Expect), tr.Source) {
				tr.Detected = true
				tr.DetectedStep = step
			}
		}
	}
	return nil
}

func (rt *scenarioRun) conditionHolds(t Trigger) bool {
	switch t.kind {
	case trigBreakerOpen, trigBreakerClose:
		sw := rt.r.Sim.Network().FindSwitch(t.element)
		if sw == nil {
			return false
		}
		return sw.Closed == (t.kind == trigBreakerClose)
	case trigAlert:
		for _, ds := range rt.sensors {
			if len(ds.s.AlertsOf(t.alert)) > 0 {
				return true
			}
		}
	case trigDeadBuses:
		if res := rt.r.Sim.LastResult(); res != nil {
			return res.DeadBuses >= t.count
		}
	}
	return false
}

func (rt *scenarioRun) alertSeen(kind ids.AlertKind, source string) bool {
	for _, ds := range rt.sensors {
		for _, a := range ds.s.AlertsOf(kind) {
			if a.Source == source {
				return true
			}
		}
	}
	return false
}

// teardown withdraws scenario-started attack infrastructure so the range is
// left clean for post-run inspection. Restores whose step lies past the end
// of the run (a link flap fired near the last step) are executed here rather
// than dropped, so the fabric is never left impaired by a self-reverting
// action.
func (rt *scenarioRun) teardown() {
	sort.SliceStable(rt.restores, func(i, j int) bool { return rt.restores[i].at < rt.restores[j].at })
	for _, rs := range rt.restores {
		rs.fn()
	}
	rt.restores = nil
	names := make([]string, 0, len(rt.mitms))
	for name := range rt.mitms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rt.mitms[name].Stop()
		delete(rt.mitms, name)
	}
}

// finish assembles the report: the distinct alert timeline, precision and
// recall against ground truth, the grid's closing state and the diagnostics.
func (rt *scenarioRun) finish() {
	rep := rt.report

	type pairKey struct{ sensor, kind, source string }
	first := map[pairKey]int{}
	order := []pairKey{}
	raw := 0
	var inspected uint64
	for _, ds := range rt.sensors {
		inspected += ds.s.Frames()
		for _, a := range ds.s.Alerts() {
			raw++
			k := pairKey{ds.name, string(a.Kind), a.Source}
			if at, ok := first[k]; !ok || (a.Step >= 0 && a.Step < at) {
				if !ok {
					order = append(order, k)
				}
				first[k] = a.Step
			}
		}
	}
	matched := func(kind, source string) bool {
		for _, tr := range rep.Truth {
			if tr.Expect == kind && tr.Source == source {
				return true
			}
		}
		return false
	}
	for _, k := range order {
		rep.Alerts = append(rep.Alerts, AlertSummary{
			Sensor: k.sensor, Kind: k.kind, Source: k.source,
			FirstStep: first[k], Matched: matched(k.kind, k.source),
		})
	}
	sort.Slice(rep.Alerts, func(i, j int) bool {
		a, b := rep.Alerts[i], rep.Alerts[j]
		if a.Sensor != b.Sensor {
			return a.Sensor < b.Sensor
		}
		if a.FirstStep != b.FirstStep {
			return a.FirstStep < b.FirstStep
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Source < b.Source
	})

	rep.Precision, rep.Recall = 1, 1
	if len(rep.Alerts) > 0 {
		hits := 0
		for _, a := range rep.Alerts {
			if a.Matched {
				hits++
			}
		}
		rep.Precision = float64(hits) / float64(len(rep.Alerts))
	}
	if len(rep.Truth) > 0 {
		det := 0
		for _, tr := range rep.Truth {
			if tr.Detected {
				det++
			}
		}
		rep.Recall = float64(det) / float64(len(rep.Truth))
	}

	if res := rt.r.Sim.LastResult(); res != nil {
		rep.Grid.Converged = res.Converged
		rep.Grid.Islands = res.Islands
		rep.Grid.DeadBuses = res.DeadBuses
	}
	for _, sw := range rt.r.Sim.Network().Switches {
		if !sw.Closed {
			rep.Grid.OpenBreakers = append(rep.Grid.OpenBreakers, sw.Name)
		}
	}
	sort.Strings(rep.Grid.OpenBreakers)

	steps, mean := rt.r.Sim.Stats()
	hits, misses := rt.r.Sim.SolverCacheStats()
	rep.Diag = RunDiagnostics{
		PowerSteps: steps, MeanSolve: mean,
		SolverCacheHits: hits, SolverCacheMisses: misses,
		SolveFailures:   rt.r.Sim.Failures(),
		DataPlane:       rt.r.Net.Stats(),
		FramesInspected: inspected,
		AlertsRaised:    raw,
	}
}

// ---------------------------------------------------------------------------
// Scenario files (the declarative XML form parsed by internal/sgmlconf)
// ---------------------------------------------------------------------------

// ScenarioFromConfig converts a parsed Scenario XML file into the typed
// scenario model. Structural validation (known kinds, required attributes)
// happened in sgmlconf; resolution against a compiled range happens when the
// scenario runs.
func ScenarioFromConfig(c *sgmlconf.ScenarioConfig) (*Scenario, error) {
	sc := &Scenario{Name: c.Name, Steps: c.Steps, Seed: c.Seed}
	for _, a := range c.Attackers {
		spec := AttackerSpec{Name: a.Name, Switch: a.Switch}
		ip, err := netem.ParseIPv4(a.IP)
		if err != nil {
			return nil, fmt.Errorf("%w: attacker %q: %v", ErrScenario, a.Name, err)
		}
		spec.IP = ip
		if a.MAC != "" {
			mac, err := netem.ParseMAC(a.MAC)
			if err != nil {
				return nil, fmt.Errorf("%w: attacker %q: %v", ErrScenario, a.Name, err)
			}
			spec.MAC = mac
		}
		sc.Attackers = append(sc.Attackers, spec)
	}
	for i := range c.Events {
		e := &c.Events[i]
		trig, err := triggerFromConfig(e)
		if err != nil {
			return nil, fmt.Errorf("%w: event %q: %v", ErrScenario, e.Name, err)
		}
		act, err := actionFromConfig(e)
		if err != nil {
			return nil, fmt.Errorf("%w: event %q: %v", ErrScenario, e.Name, err)
		}
		sc.Events = append(sc.Events, ScenarioEvent{Name: e.Name, Trigger: trig, Action: act})
	}
	return sc, nil
}

func triggerFromConfig(e *sgmlconf.ScenarioEvent) (Trigger, error) {
	var t Trigger
	switch {
	case e.AtStep != nil:
		t = At(*e.AtStep)
	case e.AfterMS > 0:
		t = After(time.Duration(e.AfterMS) * time.Millisecond)
	case e.OnBreakerOpen != "":
		t = OnBreakerOpen(e.OnBreakerOpen)
	case e.OnBreakerClose != "":
		t = OnBreakerClose(e.OnBreakerClose)
	case e.OnAlert != "":
		t = OnAlert(ids.AlertKind(e.OnAlert))
	case e.OnDeadBuses > 0:
		t = OnDeadBuses(e.OnDeadBuses)
	default:
		t = At(0)
	}
	return t.Plus(e.Plus), nil
}

// ScenarioToConfig renders a typed scenario into its declarative XML form —
// the reverse of ScenarioFromConfig, and the serializer the scenario-search
// minimizer and regression corpus stand on. The contract (pinned by the
// round-trip property test) is behavioural equivalence: the emitted config
// re-parses to a scenario whose run fingerprint matches the original for a
// fixed (model, seed). Values without an XML form — sub-millisecond
// durations, exotic MMS payload kinds, user-defined Action implementations —
// return ErrScenario rather than serializing lossily.
func ScenarioToConfig(sc *Scenario) (*sgmlconf.ScenarioConfig, error) {
	c := &sgmlconf.ScenarioConfig{Name: sc.Name, Steps: sc.Steps, Seed: sc.Seed}
	if c.Name == "" {
		c.Name = "scenario"
	}
	for i := range sc.Attackers {
		a := &sc.Attackers[i]
		sa := sgmlconf.ScenarioAttacker{Name: a.Name, Switch: a.Switch, IP: a.IP.String()}
		if a.MAC != (netem.MAC{}) {
			sa.MAC = a.MAC.String()
		}
		c.Attackers = append(c.Attackers, sa)
	}
	for i := range sc.Events {
		ev := &sc.Events[i]
		if ev.Action == nil {
			return nil, fmt.Errorf("%w: event %q has no action", ErrScenario, ev.Name)
		}
		e := sgmlconf.ScenarioEvent{Name: ev.Name}
		if err := triggerToConfig(ev.Trigger, &e); err != nil {
			return nil, fmt.Errorf("%w: event %q: %v", ErrScenario, ev.Name, err)
		}
		if err := actionToConfig(ev.Action, &e); err != nil {
			return nil, fmt.Errorf("%w: event %q: %v", ErrScenario, ev.Name, err)
		}
		c.Events = append(c.Events, e)
	}
	return c, nil
}

func triggerToConfig(t Trigger, e *sgmlconf.ScenarioEvent) error {
	switch t.kind {
	case trigAtStep:
		step := t.step
		e.AtStep = &step
	case trigAfter:
		if t.offset%time.Millisecond != 0 {
			return fmt.Errorf("trigger offset %v is not a whole millisecond", t.offset)
		}
		if ms := int(t.offset / time.Millisecond); ms > 0 {
			e.AfterMS = ms
		} else {
			// After(0) and At(0) resolve identically; emit the explicit form.
			zero := 0
			e.AtStep = &zero
		}
	case trigBreakerOpen:
		e.OnBreakerOpen = t.element
	case trigBreakerClose:
		e.OnBreakerClose = t.element
	case trigAlert:
		e.OnAlert = string(t.alert)
	case trigDeadBuses:
		e.OnDeadBuses = t.count
	default:
		return fmt.Errorf("trigger %q has no XML form", t.describe())
	}
	e.Plus = t.delay
	return nil
}

func actionToConfig(a Action, e *sgmlconf.ScenarioEvent) error {
	switch act := a.(type) {
	case PowerStep:
		e.Kind, e.Element, e.Value = act.Kind, act.Element, act.Value
	case LinkDown:
		e.Kind, e.LinkA, e.LinkB = "linkDown", act.A, act.B
	case LinkUp:
		e.Kind, e.LinkA, e.LinkB = "linkUp", act.A, act.B
	case LinkFlap:
		e.Kind, e.LinkA, e.LinkB, e.DownSteps = "linkFlap", act.A, act.B, act.DownSteps
	case LinkLoss:
		e.Kind, e.LinkA, e.LinkB, e.Rate = "linkLoss", act.A, act.B, act.Rate
	case LinkLatency:
		if act.Latency%time.Millisecond != 0 {
			return fmt.Errorf("latency %v is not a whole millisecond", act.Latency)
		}
		e.Kind, e.LinkA, e.LinkB = "linkLatency", act.A, act.B
		e.LatencyMS = int(act.Latency / time.Millisecond)
	case PortScan:
		e.Kind, e.Attacker, e.Target = "portScan", act.Attacker, act.Target
		ports := make([]string, len(act.Ports))
		for i, p := range act.Ports {
			ports[i] = fmt.Sprintf("%d", p)
		}
		e.Ports = strings.Join(ports, ",")
	case FalseCommand:
		e.Kind, e.Attacker, e.Target, e.Ref = "falseCommand", act.Attacker, act.Target, act.Ref
		switch act.Value.Kind {
		case mms.KindBool:
			b := act.Value.Bool
			e.BoolValue = &b
		case mms.KindFloat:
			e.Value = act.Value.Float
		default:
			return fmt.Errorf("falseCommand value kind %v has no XML form", act.Value.Kind)
		}
	case StartMITM:
		e.Kind, e.Attacker, e.VictimA, e.VictimB = "mitm", act.Attacker, act.VictimA, act.VictimB
		e.ScaleFloats, e.Blackhole, e.ForSteps = act.ScaleFloats, act.Blackhole, act.ForSteps
	case StopMITM:
		e.Kind, e.Attacker = "stopMitm", act.Attacker
	case ModbusTamper:
		e.Kind, e.Attacker, e.Target = "modbusTamper", act.Attacker, act.PLC
		e.Table, e.Address, e.Word = act.Table, int(act.Address), int(act.Value)
	case DeployIDS:
		e.Kind, e.Sensor, e.Threshold = "deployIDS", act.Name, act.PortScanThreshold
		e.Writers = strings.Join(act.AuthorizedWriters, ",")
	default:
		return fmt.Errorf("action %T has no XML form", a)
	}
	return nil
}

func actionFromConfig(e *sgmlconf.ScenarioEvent) (Action, error) {
	switch e.Kind {
	case "loadScale", "loadP", "genP", "sgenP", "switch", "lineService":
		return PowerStep{Kind: e.Kind, Element: e.Element, Value: e.Value}, nil
	case "openBreaker":
		return OpenBreaker(e.Element), nil
	case "closeBreaker":
		return CloseBreaker(e.Element), nil
	case "linkDown":
		return LinkDown{A: e.LinkA, B: e.LinkB}, nil
	case "linkUp":
		return LinkUp{A: e.LinkA, B: e.LinkB}, nil
	case "linkFlap":
		return LinkFlap{A: e.LinkA, B: e.LinkB, DownSteps: e.DownSteps}, nil
	case "linkLoss":
		return LinkLoss{A: e.LinkA, B: e.LinkB, Rate: e.Rate}, nil
	case "linkLatency":
		return LinkLatency{A: e.LinkA, B: e.LinkB, Latency: time.Duration(e.LatencyMS) * time.Millisecond}, nil
	case "portScan":
		return PortScan{Attacker: e.Attacker, Target: e.Target, Ports: e.PortList()}, nil
	case "falseCommand":
		var v mms.Value
		if e.BoolValue != nil {
			v = mms.NewBool(*e.BoolValue)
		} else {
			v = mms.NewFloat(e.Value)
		}
		return FalseCommand{Attacker: e.Attacker, Target: e.Target, Ref: e.Ref, Value: v}, nil
	case "mitm":
		return StartMITM{
			Attacker: e.Attacker, VictimA: e.VictimA, VictimB: e.VictimB,
			ScaleFloats: e.ScaleFloats, Blackhole: e.Blackhole, ForSteps: e.ForSteps,
		}, nil
	case "stopMitm":
		return StopMITM{Attacker: e.Attacker}, nil
	case "modbusTamper":
		return ModbusTamper{
			Attacker: e.Attacker, PLC: e.Target,
			Table: e.Table, Address: uint16(e.Address), Value: uint16(e.Word),
		}, nil
	case "deployIDS":
		return DeployIDS{
			Name:              e.SensorName(),
			AuthorizedWriters: e.WriterList(),
			PortScanThreshold: e.Threshold,
		}, nil
	}
	return nil, fmt.Errorf("unknown action kind %q", e.Kind)
}
