package sgmlconf

import (
	"encoding/xml"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/netem"
)

// ---------------------------------------------------------------------------
// Scenario XML
// ---------------------------------------------------------------------------
//
// The fourth supplementary schema: a declarative experiment description in
// the same flat, attribute-based style as the three SG-ML config files. It
// extends the Power System Extra Config's <Step> time series to the full
// scenario vocabulary — power faults, network impairments, attack steps and
// IDS deployment — with triggers that may be a step index, a simulated-time
// offset, or an observed condition.
//
//	<Scenario name="redblue" steps="16" seed="7">
//	  <Attacker name="redbox" switch="sw-TransLAN" ip="10.0.1.13"/>
//	  <Event name="blue"  atStep="0" kind="deployIDS" writers="SCADA,CPLC" threshold="5"/>
//	  <Event name="recon" atStep="3" kind="portScan" attacker="redbox" target="TIED1"/>
//	  <Event name="fci"   onAlert="tcp-port-scan" plus="1" kind="falseCommand"
//	         attacker="redbox" target="TIED1" ref="LD0/XCBR1.Pos.Oper" boolValue="false"/>
//	</Scenario>

// ScenarioConfig is the root of a Scenario XML file. The optional attributes
// carry omitempty so the writer half (MarshalScenarioConfig) emits the same
// sparse attribute style the examples are written in; parsing is unaffected.
type ScenarioConfig struct {
	XMLName   xml.Name           `xml:"Scenario"`
	Name      string             `xml:"name,attr"`
	Steps     int                `xml:"steps,attr,omitempty"`
	Seed      int64              `xml:"seed,attr,omitempty"`
	Attackers []ScenarioAttacker `xml:"Attacker"`
	Events    []ScenarioEvent    `xml:"Event"`
}

// ScenarioAttacker places an attacker host on a named switch.
type ScenarioAttacker struct {
	Name   string `xml:"name,attr"`
	Switch string `xml:"switch,attr"`
	IP     string `xml:"ip,attr"`
	MAC    string `xml:"mac,attr,omitempty"` // optional; derived from the seed when empty
}

// ScenarioEvent is one trigger + action pair. Exactly one trigger attribute
// may be set (none defaults to atStep="0"); the action attributes used depend
// on kind.
type ScenarioEvent struct {
	Name string `xml:"name,attr,omitempty"`

	// Triggers (mutually exclusive). AtStep is a pointer so atStep="0" stays
	// distinguishable from "no trigger attribute" on both passes: a non-nil
	// pointer to zero survives omitempty, a nil one is omitted.
	AtStep         *int   `xml:"atStep,attr,omitempty"`
	AfterMS        int    `xml:"afterMs,attr,omitempty"`
	OnBreakerOpen  string `xml:"onBreakerOpen,attr,omitempty"`
	OnBreakerClose string `xml:"onBreakerClose,attr,omitempty"`
	OnAlert        string `xml:"onAlert,attr,omitempty"`
	OnDeadBuses    int    `xml:"onDeadBuses,attr,omitempty"`
	Plus           int    `xml:"plus,attr,omitempty"` // extra step delay on any trigger

	// Action selector.
	Kind string `xml:"kind,attr"`

	// Power actions: loadScale|loadP|genP|sgenP|switch|lineService (generic,
	// element+value) and the openBreaker|closeBreaker sugar (element only).
	Element string  `xml:"element,attr,omitempty"`
	Value   float64 `xml:"value,attr,omitempty"`

	// Network impairments: linkDown|linkUp|linkFlap|linkLoss|linkLatency.
	LinkA     string  `xml:"linkA,attr,omitempty"`
	LinkB     string  `xml:"linkB,attr,omitempty"`
	DownSteps int     `xml:"downSteps,attr,omitempty"`
	Rate      float64 `xml:"rate,attr,omitempty"`
	LatencyMS int     `xml:"latencyMs,attr,omitempty"`

	// Attack steps: portScan|falseCommand|mitm|stopMitm.
	Attacker    string  `xml:"attacker,attr,omitempty"`
	Target      string  `xml:"target,attr,omitempty"`
	Ports       string  `xml:"ports,attr,omitempty"` // comma-separated; empty = defaults
	Ref         string  `xml:"ref,attr,omitempty"`
	BoolValue   *bool   `xml:"boolValue,attr,omitempty"` // falseCommand payload; Value when absent
	VictimA     string  `xml:"victimA,attr,omitempty"`
	VictimB     string  `xml:"victimB,attr,omitempty"`
	ScaleFloats float64 `xml:"scaleFloats,attr,omitempty"`
	Blackhole   bool    `xml:"blackhole,attr,omitempty"`
	ForSteps    int     `xml:"forSteps,attr,omitempty"`

	// Sensor deployment: deployIDS.
	Sensor    string `xml:"sensor,attr,omitempty"`
	Writers   string `xml:"writers,attr,omitempty"` // comma-separated node names
	Threshold int    `xml:"threshold,attr,omitempty"`

	// PLC tampering: modbusTamper (attacker + target select who and which
	// PLC; these select what is written).
	Table   string `xml:"table,attr,omitempty"`   // "coil" (default) or "holding"
	Address int    `xml:"address,attr,omitempty"` // coil/register address
	Word    int    `xml:"word,attr,omitempty"`    // value written (coil: 0 clears, else sets)
}

// PortList parses the comma-separated port list (nil when empty).
func (e *ScenarioEvent) PortList() []uint16 {
	if e.Ports == "" {
		return nil
	}
	var out []uint16
	for _, s := range strings.Split(e.Ports, ",") {
		p, err := strconv.ParseUint(strings.TrimSpace(s), 10, 16)
		if err != nil {
			continue // Validate rejects malformed lists before this is used
		}
		out = append(out, uint16(p))
	}
	return out
}

// WriterList parses the comma-separated authorized-writer node names.
func (e *ScenarioEvent) WriterList() []string {
	if e.Writers == "" {
		return nil
	}
	var out []string
	for _, s := range strings.Split(e.Writers, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

// maxMS is the largest millisecond count a time.Duration holds.
const maxMS = int(math.MaxInt64 / int64(time.Millisecond))

// Validate checks the structural invariants: parseable attacker addresses,
// trigger exclusivity, in-range trigger and duration attributes, known
// action kinds and the per-kind required attributes. Name resolution against
// a compiled range happens when the scenario runs.
func (c *ScenarioConfig) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("%w: scenario without name", ErrConfig)
	}
	if c.Steps < 0 {
		return fmt.Errorf("%w: scenario steps %d", ErrConfig, c.Steps)
	}
	attackers := map[string]bool{}
	for _, a := range c.Attackers {
		if a.Name == "" || attackers[a.Name] {
			return fmt.Errorf("%w: bad or duplicate attacker %q", ErrConfig, a.Name)
		}
		if a.Switch == "" {
			return fmt.Errorf("%w: attacker %q without switch", ErrConfig, a.Name)
		}
		if a.IP == "" {
			return fmt.Errorf("%w: attacker %q without ip", ErrConfig, a.Name)
		}
		if _, err := netem.ParseIPv4(a.IP); err != nil {
			return fmt.Errorf("%w: attacker %q: %v", ErrConfig, a.Name, err)
		}
		if a.MAC != "" {
			if _, err := netem.ParseMAC(a.MAC); err != nil {
				return fmt.Errorf("%w: attacker %q: %v", ErrConfig, a.Name, err)
			}
		}
		attackers[a.Name] = true
	}
	names := map[string]bool{}
	for i := range c.Events {
		e := &c.Events[i]
		label := e.Name
		if label == "" {
			label = fmt.Sprintf("#%d", i+1)
		}
		if e.Name != "" && names[e.Name] {
			return fmt.Errorf("%w: duplicate event name %q", ErrConfig, e.Name)
		}
		names[e.Name] = true
		triggers := 0
		if e.AtStep != nil {
			triggers++
			if *e.AtStep < 0 {
				return fmt.Errorf("%w: event %s: negative atStep", ErrConfig, label)
			}
		}
		if e.AfterMS < 0 || e.AfterMS > maxMS {
			return fmt.Errorf("%w: event %s: afterMs %d outside 0..%d", ErrConfig, label, e.AfterMS, maxMS)
		}
		if e.AfterMS > 0 {
			triggers++
		}
		if e.OnBreakerOpen != "" {
			triggers++
		}
		if e.OnBreakerClose != "" {
			triggers++
		}
		if e.OnAlert != "" {
			triggers++
		}
		if e.OnDeadBuses < 0 {
			return fmt.Errorf("%w: event %s: negative onDeadBuses", ErrConfig, label)
		}
		if e.OnDeadBuses > 0 {
			triggers++
		}
		if triggers > 1 {
			return fmt.Errorf("%w: event %s: multiple triggers", ErrConfig, label)
		}
		if e.Plus < 0 {
			return fmt.Errorf("%w: event %s: negative plus", ErrConfig, label)
		}
		if err := e.validateKind(label, attackers); err != nil {
			return err
		}
	}
	return nil
}

func (e *ScenarioEvent) validateKind(label string, attackers map[string]bool) error {
	needAttacker := func() error {
		if e.Attacker == "" {
			return fmt.Errorf("%w: event %s: kind %q needs attacker", ErrConfig, label, e.Kind)
		}
		if !attackers[e.Attacker] {
			return fmt.Errorf("%w: event %s: undeclared attacker %q", ErrConfig, label, e.Attacker)
		}
		return nil
	}
	switch e.Kind {
	case "linkDown", "linkUp", "linkFlap", "linkLoss", "linkLatency":
		if e.LinkA == "" || e.LinkB == "" {
			return fmt.Errorf("%w: event %s: kind %q needs linkA and linkB", ErrConfig, label, e.Kind)
		}
		if e.Kind == "linkFlap" && e.DownSteps < 1 {
			return fmt.Errorf("%w: event %s: linkFlap needs downSteps >= 1", ErrConfig, label)
		}
		if e.Kind == "linkLoss" && (e.Rate < 0 || e.Rate > 1) {
			return fmt.Errorf("%w: event %s: loss rate %v outside [0,1]", ErrConfig, label, e.Rate)
		}
		if e.Kind == "linkLatency" && (e.LatencyMS < 0 || e.LatencyMS > maxMS) {
			return fmt.Errorf("%w: event %s: latencyMs %d outside 0..%d", ErrConfig, label, e.LatencyMS, maxMS)
		}
	case "portScan":
		if err := needAttacker(); err != nil {
			return err
		}
		if e.Target == "" {
			return fmt.Errorf("%w: event %s: portScan needs target", ErrConfig, label)
		}
		if e.Ports != "" {
			for _, s := range strings.Split(e.Ports, ",") {
				if _, err := strconv.ParseUint(strings.TrimSpace(s), 10, 16); err != nil {
					return fmt.Errorf("%w: event %s: bad port %q", ErrConfig, label, strings.TrimSpace(s))
				}
			}
		}
	case "falseCommand":
		if err := needAttacker(); err != nil {
			return err
		}
		if e.Target == "" || e.Ref == "" {
			return fmt.Errorf("%w: event %s: falseCommand needs target and ref", ErrConfig, label)
		}
	case "mitm":
		if err := needAttacker(); err != nil {
			return err
		}
		if e.VictimA == "" || e.VictimB == "" {
			return fmt.Errorf("%w: event %s: mitm needs victimA and victimB", ErrConfig, label)
		}
		if e.ForSteps < 0 {
			return fmt.Errorf("%w: event %s: negative forSteps", ErrConfig, label)
		}
	case "stopMitm":
		if err := needAttacker(); err != nil {
			return err
		}
	case "modbusTamper":
		if err := needAttacker(); err != nil {
			return err
		}
		if e.Target == "" {
			return fmt.Errorf("%w: event %s: modbusTamper needs target", ErrConfig, label)
		}
		switch e.Table {
		case "", "coil", "holding":
		default:
			return fmt.Errorf("%w: event %s: modbusTamper table %q (want coil or holding)", ErrConfig, label, e.Table)
		}
		if e.Address < 0 || e.Address > 65535 {
			return fmt.Errorf("%w: event %s: modbusTamper address %d outside 0..65535", ErrConfig, label, e.Address)
		}
		if e.Word < 0 || e.Word > 65535 {
			return fmt.Errorf("%w: event %s: modbusTamper word %d outside 0..65535", ErrConfig, label, e.Word)
		}
	case "deployIDS":
		if e.Threshold < 0 {
			return fmt.Errorf("%w: event %s: negative threshold", ErrConfig, label)
		}
	default: // power steps, including the openBreaker/closeBreaker sugar
		if !validStepKinds[e.Kind] && e.Kind != "openBreaker" && e.Kind != "closeBreaker" {
			return fmt.Errorf("%w: event %s: unknown kind %q", ErrConfig, label, e.Kind)
		}
		if e.Element == "" {
			return fmt.Errorf("%w: event %s: kind %q needs element", ErrConfig, label, e.Kind)
		}
	}
	return nil
}

// MarshalScenarioConfig validates and renders a Scenario config back to XML —
// the writer half the scenario-search minimizer stands on. The output
// re-parses under ParseScenarioConfig to an equivalent config: every emitted
// attribute round-trips, and attributes at their parse-time defaults are
// omitted.
func MarshalScenarioConfig(c *ScenarioConfig) ([]byte, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return Marshal(c)
}

// ParseScenarioConfig decodes and validates a Scenario XML file.
func ParseScenarioConfig(data []byte) (*ScenarioConfig, error) {
	var c ScenarioConfig
	if err := xml.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}
