package main

import (
	"math/rand"
	"strings"

	sgml "repro"
	"repro/internal/kvbus"
	"repro/internal/powersim"
	"repro/mms"
	"repro/netem"
)

// Everything a workload hands the program is generated in this file from
// the benchmark seed: the same seed gives the same schedules and seed lists.

// stepEvent is what a stepping loop applies through Sim.Apply before one
// step. A zero Kind means nothing is scheduled for the step.
type stepEvent struct {
	ev   powersim.Event
	flip bool // the event opens or closes a breaker: a topology change
}

// gridNames lists the loads and the operable breakers of a range's power
// model, in model order. A breaker is operable when it is closed, is not a
// tie between substations (the models name those *Tie*; opening one
// de-energises whole substations and makes a step's cost depend on the
// seed), and no device holds a command for it on the kv bus: a commanded
// breaker follows its device's command on every step, whatever Sim.Apply
// set.
type gridNames struct {
	loads    []string
	breakers []string
}

func gridOf(r *sgml.CyberRange) gridNames {
	net := r.Sim.Network()
	var g gridNames
	for _, l := range net.Loads {
		g.loads = append(g.loads, l.Name)
	}
	for _, sw := range net.Switches {
		_, commanded := r.Bus.Get(kvbus.BreakerCmdKey(net.Name, sw.Name))
		if sw.Closed && !commanded && !strings.Contains(sw.Name, "Tie") {
			g.breakers = append(g.breakers, sw.Name)
		}
	}
	return g
}

// flipSchedule is the interactive operator script: a load rescaled to
// 0.9–1.1 of nominal before every step, except that every 20–30 steps one
// breaker is opened, and at the next such point closed again. The schedule
// ends with every breaker closed, so it can be replayed back to back.
func flipSchedule(seed int64, g gridNames, steps int) []stepEvent {
	rng := rand.New(rand.NewSource(seed))
	out := make([]stepEvent, steps)
	next := 20 + rng.Intn(11)
	open := ""
	for i := range out {
		last := i == steps-1
		switch {
		case open != "" && (i == next || last):
			out[i] = stepEvent{ev: powersim.Event{Kind: powersim.SetSwitch, Element: open, Value: 1}, flip: true}
			open = ""
			next = i + 20 + rng.Intn(11)
		case i == next && !last:
			open = g.breakers[rng.Intn(len(g.breakers))]
			out[i] = stepEvent{ev: powersim.Event{Kind: powersim.SetSwitch, Element: open, Value: 0}, flip: true}
			next = i + 20 + rng.Intn(11)
		default:
			l := g.loads[rng.Intn(len(g.loads))]
			out[i] = stepEvent{ev: powersim.Event{Kind: powersim.SetLoadScale, Element: l, Value: 0.9 + 0.2*rng.Float64()}}
		}
	}
	return out
}

// seedPool draws n distinct positive run seeds.
func seedPool(rng *rand.Rand, n int) []int64 {
	seen := make(map[int64]bool, n)
	out := make([]int64, 0, n)
	for len(out) < n {
		s := 1 + rng.Int63n(1<<31)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// sweepSeeds yields the seed list of each campaign sweep: sweepRuns
// distinct seeds drawn from a pool of sweepPool, so reference results are
// computed once per pool seed.
type sweepSeeds struct {
	rng  *rand.Rand
	pool []int64
}

const (
	sweepRuns = 20
	sweepPool = 24
)

func newSweepSeeds(seed int64) *sweepSeeds {
	rng := rand.New(rand.NewSource(seed))
	return &sweepSeeds{rng: rng, pool: seedPool(rng, sweepPool)}
}

func (s *sweepSeeds) next() []int64 {
	out := make([]int64, sweepRuns)
	for i, j := range s.rng.Perm(len(s.pool))[:sweepRuns] {
		out[i] = s.pool[j]
	}
	return out
}

// drillSeeds yields one seed per red/blue drill, drawn from a small pool
// because each pool seed costs a reference run of about a second.
type drillSeeds struct {
	rng  *rand.Rand
	pool []int64
}

const drillPool = 4

func newDrillSeeds(seed int64) *drillSeeds {
	rng := rand.New(rand.NewSource(seed))
	return &drillSeeds{rng: rng, pool: seedPool(rng, drillPool)}
}

func (d *drillSeeds) next() int64 { return d.pool[d.rng.Intn(len(d.pool))] }

// campaignDrill is the trip/shed/heal drill of the 5×20 campaign benchmark
// in the repository's bench_test.go.
func campaignDrill() *sgml.Scenario {
	return &sgml.Scenario{
		Name:  "campaign-drill",
		Steps: 6,
		Events: []sgml.Event{
			{Name: "trip", Trigger: sgml.At(1), Action: sgml.OpenBreaker("S3_CB1")},
			{Name: "shed", Trigger: sgml.At(2), Action: sgml.ScaleLoad("S1_LD1", 0.5)},
			{Name: "heal", Trigger: sgml.At(4), Action: sgml.CloseBreaker("S3_CB1")},
		},
	}
}

// campaignDrillSteps is campaignDrill as a stepping schedule, for the traced
// stepping of 5×20 forks.
func campaignDrillSteps() []stepEvent {
	out := make([]stepEvent, 6)
	out[1] = stepEvent{ev: powersim.Event{Kind: powersim.SetSwitch, Element: "S3_CB1", Value: 0}, flip: true}
	out[2] = stepEvent{ev: powersim.Event{Kind: powersim.SetLoadScale, Element: "S1_LD1", Value: 0.5}}
	out[4] = stepEvent{ev: powersim.Event{Kind: powersim.SetSwitch, Element: "S3_CB1", Value: 1}, flip: true}
	return out
}

// redBlueDrill is the EPIC red/blue engagement: the blue team deploys an
// IDS, the red team scans TIED1, injects a breaker-open command once the
// scan is detected, mounts a three-step MITM on the write alert and tampers
// with a CPLC coil on the ARP-spoof alert.
func redBlueDrill() *sgml.Scenario {
	return &sgml.Scenario{
		Name:      "redblue-drill",
		Steps:     16,
		Attackers: []sgml.AttackerSpec{{Name: "redbox", Switch: "sw-TransLAN", IP: netem.MustIPv4("10.0.1.13")}},
		Events: []sgml.Event{
			{Name: "deployIDS", Trigger: sgml.At(0), Action: sgml.DeployIDS{
				Name: "blue", AuthorizedWriters: []string{"SCADA", "CPLC"}, PortScanThreshold: 5,
			}},
			{Name: "portScan", Trigger: sgml.At(3), Action: sgml.PortScan{Attacker: "redbox", Target: "TIED1"}},
			{Name: "falseCommand", Trigger: sgml.OnAlert(sgml.AlertPortScan).Plus(1), Action: sgml.FalseCommand{
				Attacker: "redbox", Target: "TIED1", Ref: "LD0/XCBR1.Pos.Oper", Value: mms.NewBool(false),
			}},
			{Name: "mitm", Trigger: sgml.OnAlert(sgml.AlertUnauthorizedWrite).Plus(1), Action: sgml.StartMITM{
				Attacker: "redbox", VictimA: "CPLC", VictimB: "TIED1", ScaleFloats: 1.0, ForSteps: 3,
			}},
			{Name: "modbusTamper", Trigger: sgml.OnAlert(sgml.AlertARPSpoof).Plus(1), Action: sgml.TamperCoil("redbox", "CPLC", 0, true)},
		},
	}
}
