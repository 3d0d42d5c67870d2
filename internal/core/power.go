package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/powergrid"
	"repro/internal/powersim"
	"repro/internal/scl"
	"repro/internal/sclmerge"
	"repro/internal/sgmlconf"
)

// ErrModel is returned when the SG-ML model cannot be compiled.
var ErrModel = errors.New("core: invalid SG-ML model")

// Default electrical parameters applied when the Power System Extra Config
// XML does not override an element (documented SG-ML profile defaults).
const (
	defLineLengthKM = 1.0
	defLineR        = 0.10
	defLineX        = 0.35
	defLineC        = 10.0
	defLineMaxIKA   = 0.4
	defLoadPMW      = 0.5
	defLoadQMVAr    = 0.1
	defGenPMW       = 1.0
	defVmPU         = 1.0
	defTrafoSnMVA   = 25.0
	defTrafoVK      = 10.0
	defTrafoVKR     = 0.5
)

// GeneratePowerModel is the SSD Parser stage: it walks every substation of
// the consolidated document and emits the powergrid.Network, merging in the
// electrical parameters of the Power System Extra Config XML and the
// inter-substation ties of the SED.
func GeneratePowerModel(name string, cons *sclmerge.Consolidated, pc *sgmlconf.PowerConfig) (*powergrid.Network, error) {
	if pc == nil {
		pc = &sgmlconf.PowerConfig{BaseMVA: 100}
	}
	net := powergrid.New(name)
	if pc.BaseMVA > 0 {
		net.BaseMVA = pc.BaseMVA
	}

	// Pass 1: buses from connectivity nodes, with their voltage level.
	type busInfo struct {
		vnKV float64
		zone string
	}
	buses := map[string]busInfo{}
	for _, sub := range cons.Doc.Substations {
		for _, vl := range sub.VoltageLevels {
			for _, bay := range vl.Bays {
				for _, node := range bay.ConnectivityNodes {
					if _, dup := buses[node.PathName]; dup {
						return nil, fmt.Errorf("%w: duplicate connectivity node %q", ErrModel, node.PathName)
					}
					buses[node.PathName] = busInfo{vnKV: vl.Voltage.KV(), zone: sub.Name}
					net.AddBus(node.PathName, vl.Voltage.KV(), sub.Name)
				}
			}
		}
	}

	// Pass 2: equipment.
	for _, sub := range cons.Doc.Substations {
		for _, vl := range sub.VoltageLevels {
			for _, bay := range vl.Bays {
				for _, eq := range bay.ConductingEquipments {
					if err := addEquipment(net, pc, sub.Name, bay, eq); err != nil {
						return nil, err
					}
				}
			}
		}
		for _, tr := range sub.PowerTransformers {
			if err := addTransformer(net, pc, tr); err != nil {
				return nil, err
			}
		}
	}

	// Pass 3: breakers (need lines/trafos resolved first).
	for _, sub := range cons.Doc.Substations {
		for _, vl := range sub.VoltageLevels {
			for _, bay := range vl.Bays {
				for _, eq := range bay.ConductingEquipments {
					if eq.Type != scl.TypeBreaker && eq.Type != scl.TypeDisconnector {
						continue
					}
					if err := addSwitch(net, bay, eq); err != nil {
						return nil, err
					}
				}
			}
		}
	}

	// Pass 4: SED ties become inter-substation lines.
	for _, tie := range cons.Ties {
		if _, ok := buses[tie.FromNode]; !ok {
			return nil, fmt.Errorf("%w: tie %q from-node %q not in model", ErrModel, tie.Name, tie.FromNode)
		}
		if _, ok := buses[tie.ToNode]; !ok {
			return nil, fmt.Errorf("%w: tie %q to-node %q not in model", ErrModel, tie.Name, tie.ToNode)
		}
		net.Lines = append(net.Lines, powergrid.Line{
			Name: tie.Name, FromBus: tie.FromNode, ToBus: tie.ToNode,
			LengthKM: tie.LengthKM, ROhmPerKM: tie.ROhmPerKM, XOhmPerKM: tie.XOhmPerKM,
			CNFPerKM: tie.CNFPerKM, MaxIKA: tie.MaxIKA, InService: true,
		})
		if tie.Breaker != "" {
			net.Switches = append(net.Switches, powergrid.Switch{
				Name: tie.Breaker, Bus: tie.ToNode, Element: tie.Name,
				Kind: powergrid.SwitchLine, Closed: true,
			})
		}
	}

	if err := net.Validate(); err != nil {
		return nil, fmt.Errorf("%w: generated power model: %v", ErrModel, err)
	}
	return net, nil
}

func addEquipment(net *powergrid.Network, pc *sgmlconf.PowerConfig, subName string, bay scl.Bay, eq scl.ConductingEquipment) error {
	nodeOf := func(i int) string { return eq.Terminals[i].ConnectivityNode }
	switch eq.Type {
	case scl.TypeLine:
		if len(eq.Terminals) != 2 {
			return fmt.Errorf("%w: line %q needs 2 terminals, has %d", ErrModel, eq.Name, len(eq.Terminals))
		}
		l := powergrid.Line{
			Name: eq.Name, FromBus: nodeOf(0), ToBus: nodeOf(1),
			LengthKM: defLineLengthKM, ROhmPerKM: defLineR, XOhmPerKM: defLineX,
			CNFPerKM: defLineC, MaxIKA: defLineMaxIKA, InService: true,
		}
		if p := pc.Element("line", eq.Name); p != nil {
			if p.LengthKM > 0 {
				l.LengthKM = p.LengthKM
			}
			if p.ROhmPerKM > 0 {
				l.ROhmPerKM = p.ROhmPerKM
			}
			if p.XOhmPerKM > 0 {
				l.XOhmPerKM = p.XOhmPerKM
			}
			if p.CNFPerKM > 0 {
				l.CNFPerKM = p.CNFPerKM
			}
			if p.MaxIKA > 0 {
				l.MaxIKA = p.MaxIKA
			}
		}
		net.Lines = append(net.Lines, l)
	case scl.TypeLoad:
		// Scaling is explicitly 1.0 (ScalingSet) so later load-profile events
		// can zero it out without tripping the unset-field default.
		ld := powergrid.Load{Name: eq.Name, Bus: nodeOf(0), PMW: defLoadPMW, QMVAr: defLoadQMVAr, Scaling: 1, ScalingSet: true, InService: true}
		if p := pc.Element("load", eq.Name); p != nil {
			if p.PMW != 0 {
				ld.PMW = p.PMW
			}
			ld.QMVAr = p.QMVAr
		}
		net.Loads = append(net.Loads, ld)
	case scl.TypeGenerator:
		g := powergrid.Generator{Name: eq.Name, Bus: nodeOf(0), PMW: defGenPMW, VmPU: defVmPU, InService: true}
		if p := pc.Element("gen", eq.Name); p != nil {
			if p.PMW != 0 {
				g.PMW = p.PMW
			}
			if p.VmPU > 0 {
				g.VmPU = p.VmPU
			}
			g.MinQMVAr = p.MinQMVAr
			g.MaxQMVAr = p.MaxQMVAr
		}
		net.Gens = append(net.Gens, g)
	case scl.TypeExternalGrid:
		e := powergrid.ExternalGrid{Name: eq.Name, Bus: nodeOf(0), VmPU: defVmPU}
		if p := pc.Element("extgrid", eq.Name); p != nil && p.VmPU > 0 {
			e.VmPU = p.VmPU
		}
		net.Externals = append(net.Externals, e)
	case scl.TypePV, scl.TypeBattery:
		sg := powergrid.StaticGenerator{Name: eq.Name, Bus: nodeOf(0), PMW: defLoadPMW, InService: true}
		if p := pc.Element("sgen", eq.Name); p != nil {
			sg.PMW = p.PMW
			sg.QMVAr = p.QMVAr
		}
		net.SGens = append(net.SGens, sg)
	case scl.TypeCapacitor:
		sh := powergrid.Shunt{Name: eq.Name, Bus: nodeOf(0), InService: true}
		if p := pc.Element("shunt", eq.Name); p != nil {
			sh.PMW = p.PMW
			sh.QMVAr = p.QMVAr
		}
		net.Shunts = append(net.Shunts, sh)
	case scl.TypeBreaker, scl.TypeDisconnector:
		// Handled in pass 3.
	default:
		return fmt.Errorf("%w: equipment %q has unsupported type %q", ErrModel, eq.Name, eq.Type)
	}
	_ = subName
	_ = bay
	return nil
}

func addTransformer(net *powergrid.Network, pc *sgmlconf.PowerConfig, tr scl.PowerTransformer) error {
	if len(tr.Windings) != 2 || len(tr.Windings[0].Terminals) == 0 || len(tr.Windings[1].Terminals) == 0 {
		return fmt.Errorf("%w: transformer %q needs 2 connected windings", ErrModel, tr.Name)
	}
	hvBus := tr.Windings[0].Terminals[0].ConnectivityNode
	lvBus := tr.Windings[1].Terminals[0].ConnectivityNode
	hvIdx, lvIdx := net.BusIndex(hvBus), net.BusIndex(lvBus)
	if hvIdx < 0 || lvIdx < 0 {
		return fmt.Errorf("%w: transformer %q references unknown nodes", ErrModel, tr.Name)
	}
	// Higher-voltage winding first, regardless of declaration order.
	if net.Buses[hvIdx].VnKV < net.Buses[lvIdx].VnKV {
		hvBus, lvBus = lvBus, hvBus
		hvIdx, lvIdx = lvIdx, hvIdx
	}
	t := powergrid.Transformer{
		Name: tr.Name, HVBus: hvBus, LVBus: lvBus,
		SnMVA: defTrafoSnMVA, VKPercent: defTrafoVK, VKRPercent: defTrafoVKR,
		VnHVKV: net.Buses[hvIdx].VnKV, VnLVKV: net.Buses[lvIdx].VnKV,
		InService: true,
	}
	if p := pc.Element("trafo", tr.Name); p != nil {
		if p.SnMVA > 0 {
			t.SnMVA = p.SnMVA
		}
		if p.VKPercent > 0 {
			t.VKPercent = p.VKPercent
		}
		if p.VKRPercent > 0 {
			t.VKRPercent = p.VKRPercent
		}
	}
	net.Trafos = append(net.Trafos, t)
	return nil
}

// addSwitch resolves which element a breaker/disconnector guards, per the
// SG-ML profile convention:
//   - two terminals: bus-bus coupler between the two nodes;
//   - one terminal: the line in the same bay, else any line at the same
//     node, else a transformer winding at the node.
func addSwitch(net *powergrid.Network, bay scl.Bay, eq scl.ConductingEquipment) error {
	if len(eq.Terminals) == 2 {
		net.Switches = append(net.Switches, powergrid.Switch{
			Name: eq.Name, Bus: eq.Terminals[0].ConnectivityNode,
			Element: eq.Terminals[1].ConnectivityNode,
			Kind:    powergrid.SwitchBusBus, Closed: true,
		})
		return nil
	}
	if len(eq.Terminals) != 1 {
		return fmt.Errorf("%w: breaker %q needs 1 or 2 terminals, has %d", ErrModel, eq.Name, len(eq.Terminals))
	}
	node := eq.Terminals[0].ConnectivityNode
	// Same-bay line first.
	for _, other := range bay.ConductingEquipments {
		if other.Type == scl.TypeLine && other.Name != eq.Name {
			net.Switches = append(net.Switches, powergrid.Switch{
				Name: eq.Name, Bus: node, Element: other.Name,
				Kind: powergrid.SwitchLine, Closed: true,
			})
			return nil
		}
	}
	// Any line touching the node.
	for i := range net.Lines {
		l := &net.Lines[i]
		if l.FromBus == node || l.ToBus == node {
			net.Switches = append(net.Switches, powergrid.Switch{
				Name: eq.Name, Bus: node, Element: l.Name,
				Kind: powergrid.SwitchLine, Closed: true,
			})
			return nil
		}
	}
	// A transformer winding at the node.
	for i := range net.Trafos {
		t := &net.Trafos[i]
		if t.HVBus == node || t.LVBus == node {
			net.Switches = append(net.Switches, powergrid.Switch{
				Name: eq.Name, Bus: node, Element: t.Name,
				Kind: powergrid.SwitchTrafo, Closed: true,
			})
			return nil
		}
	}
	return fmt.Errorf("%w: breaker %q at %q guards no line or transformer", ErrModel, eq.Name, node)
}

// PowerEvents converts Power System Extra Config XML steps into neutral
// event specs (the load-profile / contingency time series of §III-B). The
// specs are one compile-time source of the scenario event model: Compile
// validates them against the generated grid and schedules them into the
// simulator; Scenario runs express the same actions via the typed DSL.
func PowerEvents(pc *sgmlconf.PowerConfig) ([]EventSpec, error) {
	if pc == nil {
		return nil, nil
	}
	out := make([]EventSpec, 0, len(pc.Steps))
	for _, s := range pc.Steps {
		out = append(out, EventSpec{AtMS: s.AtMS, Kind: s.Kind, Element: s.Element, Value: s.Value})
	}
	return out, nil
}

// EventSpec is a scenario step in neutral form (decoupled from powersim so
// the public API does not leak the simulator's types). It is the wire form
// of the scenario layer's power actions: Action converts a spec into the
// typed DSL event, and the supplementary-XML power steps compile through it.
type EventSpec struct {
	AtMS    int
	Kind    string
	Element string
	Value   float64
}

// powerKind is one row of the neutral step-kind vocabulary shared by the
// supplementary XML schema and the scenario DSL: the simulator event it
// schedules and the power-model element class it addresses.
type powerKind struct {
	sim  powersim.EventKind
	noun string
	has  func(grid *powergrid.Network, name string) bool
}

func hasLoad(g *powergrid.Network, n string) bool { return g.FindLoad(n) != nil }

// powerKinds is the one table of power step kinds; EventSpec and PowerStep
// both resolve through it.
var powerKinds = map[string]powerKind{
	"loadScale":   {powersim.SetLoadScale, "load", hasLoad},
	"loadP":       {powersim.SetLoadP, "load", hasLoad},
	"genP":        {powersim.SetGenP, "generator", func(g *powergrid.Network, n string) bool { return g.FindGen(n) != nil }},
	"sgenP":       {powersim.SetSGenP, "static generator", func(g *powergrid.Network, n string) bool { return g.FindSGen(n) != nil }},
	"switch":      {powersim.SetSwitch, "breaker/switch", func(g *powergrid.Network, n string) bool { return g.FindSwitch(n) != nil }},
	"lineService": {powersim.SetLineService, "line", func(g *powergrid.Network, n string) bool { return g.FindLine(n) != nil }},
}

// Action converts the spec into its typed scenario-DSL action.
func (s EventSpec) Action() Action {
	return PowerStep{Kind: s.Kind, Element: s.Element, Value: s.Value}
}

// SimEvent converts the spec into a scheduled simulator event.
func (s EventSpec) SimEvent() (powersim.Event, error) {
	k, ok := powerKinds[s.Kind]
	if !ok {
		return powersim.Event{}, fmt.Errorf("%w: step kind %q", ErrModel, s.Kind)
	}
	return powersim.Event{
		At: time.Duration(s.AtMS) * time.Millisecond, Kind: k.sim,
		Element: s.Element, Value: s.Value,
	}, nil
}

// Validate checks that the spec's kind is known and its element resolves in
// the generated power model, so a broken scenario step fails Compile instead
// of being discovered (or silently dropped) at runtime. The scenario layer's
// pre-run validation of PowerStep actions goes through it too.
func (s EventSpec) Validate(grid *powergrid.Network) error {
	k, ok := powerKinds[s.Kind]
	if !ok {
		return fmt.Errorf("unknown event kind %q", s.Kind)
	}
	if !k.has(grid, s.Element) {
		return fmt.Errorf("%s element %q not in the power model", k.noun, s.Element)
	}
	return nil
}
