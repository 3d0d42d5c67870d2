package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/mms"
	"repro/internal/netem"
	"repro/internal/sgmlconf"
)

// redBlueScenario is the full §IV-B engagement as a declarative scenario:
// blue team deploys the sensor, red team scans, injects a false breaker-open
// command once the scan alert is up, then mounts a bounded MITM.
func redBlueScenario() *Scenario {
	return &Scenario{
		Name: "redblue-test",
		Seed: 7,
		Attackers: []AttackerSpec{
			{Name: "redbox", Switch: "sw-TransLAN", IP: netem.MustIPv4("10.0.1.13")},
		},
		Events: []ScenarioEvent{
			{Name: "blue-sensor", Trigger: At(0), Action: DeployIDS{
				Name:              "blue",
				AuthorizedWriters: []string{"SCADA", "CPLC"},
				PortScanThreshold: 5,
			}},
			{Name: "recon", Trigger: At(2), Action: PortScan{Attacker: "redbox", Target: "TIED1"}},
			{Name: "fci", Trigger: OnAlert(ids.AlertPortScan).Plus(1), Action: FalseCommand{
				Attacker: "redbox", Target: "TIED1",
				Ref: "LD0/XCBR1.Pos.Oper", Value: mms.NewBool(false),
			}},
			{Name: "mitm", Trigger: OnAlert(ids.AlertUnauthorizedWrite).Plus(1), Action: StartMITM{
				Attacker: "redbox", VictimA: "CPLC", VictimB: "TIED1",
				ScaleFloats: 1.0, ForSteps: 2,
			}},
		},
		Steps: 14,
	}
}

func TestRunScenarioRedBlue(t *testing.T) {
	r := compiledEPIC(t)
	rep, err := RunScenario(context.Background(), r, redBlueScenario())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err != "" {
		t.Fatalf("run aborted: %s", rep.Err)
	}
	if rep.Steps != 14 || rep.Seed != 7 {
		t.Errorf("header = %d steps seed %d", rep.Steps, rep.Seed)
	}
	outcomes := map[string]EventOutcome{}
	for _, e := range rep.Events {
		outcomes[e.Event] = e
	}
	for _, name := range []string{"blue-sensor", "recon", "fci", "mitm"} {
		o := outcomes[name]
		if !o.Fired {
			t.Errorf("event %q never fired", name)
		}
		if o.Err != "" {
			t.Errorf("event %q error: %s", name, o.Err)
		}
	}
	if outcomes["recon"].Step != 2 {
		t.Errorf("recon step = %d, want 2", outcomes["recon"].Step)
	}
	// The scan alert is raised during the recon action itself (step 2's
	// pre-hook), observed at step 2's post-hook, so OnAlert.Plus(1) fires
	// the FCI at step 4; the MITM chains off the write alert likewise.
	if outcomes["fci"].Step != 4 {
		t.Errorf("fci step = %d, want 4", outcomes["fci"].Step)
	}
	if outcomes["mitm"].Step != 6 {
		t.Errorf("mitm step = %d, want 6", outcomes["mitm"].Step)
	}
	// Every injected attack must be in ground truth and detected.
	if len(rep.Truth) != 3 {
		t.Fatalf("truth entries = %d, want 3", len(rep.Truth))
	}
	for _, tr := range rep.Truth {
		if !tr.Detected {
			t.Errorf("injected %s (%s) undetected", tr.Expect, tr.Event)
		}
	}
	if rep.Recall != 1 {
		t.Errorf("recall = %v, want 1", rep.Recall)
	}
	if rep.Precision <= 0 || rep.Precision > 1 {
		t.Errorf("precision = %v", rep.Precision)
	}
	// The false breaker-open de-energises downstream buses.
	if rep.Grid.DeadBuses == 0 {
		t.Error("false command had no grid impact")
	}
	if len(rep.Grid.OpenBreakers) == 0 {
		t.Error("no open breakers after false breaker-open command")
	}
	if rep.Diag.PowerSteps == 0 || rep.Diag.FramesInspected == 0 {
		t.Errorf("diagnostics empty: %+v", rep.Diag)
	}
	// Report renderings.
	if !strings.Contains(rep.String(), "ground truth") {
		t.Error("String() missing scorecard")
	}
	if fp := rep.Fingerprint(); !strings.Contains(fp, "scenario \"redblue-test\"") {
		t.Errorf("fingerprint header: %q", fp)
	}
}

func TestRunScenarioConditionAndImpairments(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: PLC polls time out while the flapped link is down")
	}
	r := compiledEPIC(t)
	sc := &Scenario{
		Name: "faults",
		Events: []ScenarioEvent{
			{Name: "flap", Trigger: At(1), Action: LinkFlap{A: "GIED1", B: "sw-GenLAN", DownSteps: 2}},
			{Name: "slow-wan", Trigger: At(1), Action: LinkLatency{A: "TIED1", B: "sw-TransLAN", Latency: time.Millisecond}},
			{Name: "lossy", Trigger: At(1), Action: LinkLoss{A: "TIED2", B: "sw-TransLAN", Rate: 0.05}},
			{Name: "trip", Trigger: At(3), Action: OpenBreaker("CBMicro")},
			{Name: "after-trip", Trigger: OnBreakerOpen("CBMicro"), Action: ScaleLoad("Home1", 0.5)},
			{Name: "impact", Trigger: OnDeadBuses(1), Action: CloseBreaker("CBMicro")},
		},
		Steps: 10,
	}
	rep, err := RunScenario(context.Background(), r, sc, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err != "" {
		t.Fatalf("run aborted: %s", rep.Err)
	}
	byName := map[string]EventOutcome{}
	for _, e := range rep.Events {
		byName[e.Event] = e
	}
	for _, name := range []string{"flap", "slow-wan", "lossy", "trip", "after-trip", "impact"} {
		if o := byName[name]; !o.Fired || o.Err != "" {
			t.Errorf("event %q: fired=%t err=%q", name, o.Fired, o.Err)
		}
	}
	// OnBreakerOpen observed at step 3's post-hook -> fires step 4.
	if byName["after-trip"].Step != 4 {
		t.Errorf("after-trip step = %d, want 4", byName["after-trip"].Step)
	}
	if load := r.Sim.Network().FindLoad("Home1"); load.EffectiveScaling() != 0.5 {
		t.Errorf("Home1 scaling = %v, want 0.5", load.EffectiveScaling())
	}
	// The flap restored itself: the link is back up.
	if l := r.Net.LinkBetween("GIED1", "sw-GenLAN"); !l.Up() {
		t.Error("flapped link still down")
	}
	if l := r.Net.LinkBetween("TIED1", "sw-TransLAN"); l.Latency() != time.Millisecond {
		t.Errorf("latency = %v", l.Latency())
	}
	// CloseBreaker fired after grid impact; the tie is closed again.
	if sw := r.Sim.Network().FindSwitch("CBMicro"); !sw.Closed {
		t.Error("CBMicro not re-closed")
	}
}

// TestLateFlapRestoredAtTeardown pins that a self-reverting action whose
// restore step lies past the end of the run is still reverted: the run ends
// with the fabric unimpaired, not with the link permanently down.
func TestLateFlapRestoredAtTeardown(t *testing.T) {
	r := compiledEPIC(t)
	sc := &Scenario{
		Name: "late-flap",
		Events: []ScenarioEvent{
			// Fires at step 3 of 4: the restore lands at step 8, after the run.
			{Name: "flap", Trigger: At(3), Action: LinkFlap{A: "SIED1", B: "sw-HomeLAN", DownSteps: 5}},
		},
		Steps: 4,
	}
	rep, err := RunScenario(context.Background(), r, sc)
	if err != nil {
		t.Fatal(err)
	}
	if o := rep.Events[0]; !o.Fired || o.Err != "" {
		t.Fatalf("flap outcome: %+v", o)
	}
	if l := r.Net.LinkBetween("SIED1", "sw-HomeLAN"); !l.Up() {
		t.Error("link left down after the run: late restore dropped")
	}
}

func TestScenarioValidation(t *testing.T) {
	cases := []struct {
		name string
		sc   *Scenario
	}{
		{"unknown breaker", &Scenario{Events: []ScenarioEvent{
			{Trigger: At(0), Action: OpenBreaker("GHOST")}}}},
		{"unknown load", &Scenario{Events: []ScenarioEvent{
			{Trigger: At(0), Action: ScaleLoad("GHOST", 1)}}}},
		{"unknown link", &Scenario{Events: []ScenarioEvent{
			{Trigger: At(0), Action: LinkDown{A: "GHOST", B: "sw-TransLAN"}}}}},
		{"undeclared attacker", &Scenario{Events: []ScenarioEvent{
			{Trigger: At(0), Action: PortScan{Attacker: "ghost", Target: "TIED1"}}}}},
		{"unknown target", &Scenario{
			Attackers: []AttackerSpec{{Name: "a", Switch: "sw-TransLAN", IP: netem.MustIPv4("10.0.1.99")}},
			Events: []ScenarioEvent{
				{Trigger: At(0), Action: PortScan{Attacker: "a", Target: "GHOST"}}}}},
		{"unknown switch", &Scenario{
			Attackers: []AttackerSpec{{Name: "a", Switch: "sw-ghost", IP: netem.MustIPv4("10.0.1.99")}}}},
		{"attacker collides", &Scenario{
			Attackers: []AttackerSpec{{Name: "TIED1", Switch: "sw-TransLAN", IP: netem.MustIPv4("10.0.1.99")}}}},
		{"bad trigger breaker", &Scenario{Events: []ScenarioEvent{
			{Trigger: OnBreakerOpen("GHOST"), Action: ScaleLoad("Home1", 1)}}}},
		{"bad flap", &Scenario{Events: []ScenarioEvent{
			{Trigger: At(0), Action: LinkFlap{A: "TIED1", B: "sw-TransLAN"}}}}},
		{"bad loss rate", &Scenario{Events: []ScenarioEvent{
			{Trigger: At(0), Action: LinkLoss{A: "TIED1", B: "sw-TransLAN", Rate: 1.5}}}}},
		{"no action", &Scenario{Events: []ScenarioEvent{{Trigger: At(0)}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := compiledEPIC(t)
			if _, err := RunScenario(context.Background(), r, tc.sc); !errors.Is(err, ErrScenario) {
				t.Errorf("err = %v, want ErrScenario", err)
			}
		})
	}
}

func TestCompileValidatesPowerSteps(t *testing.T) {
	t.Run("unknown element", func(t *testing.T) {
		ms := epicModelSet(t)
		ms.PowerConfig.Steps = append(ms.PowerConfig.Steps,
			sgmlconf.ProfileStep{AtMS: 100, Kind: "loadScale", Element: "NoSuchLoad", Value: 2})
		_, err := Compile(ms)
		if !errors.Is(err, ErrModel) {
			t.Fatalf("err = %v, want ErrModel", err)
		}
		if !strings.Contains(err.Error(), "NoSuchLoad") || !strings.Contains(err.Error(), "loadScale") {
			t.Errorf("error does not name the offending step: %v", err)
		}
	})
	t.Run("wrong element class", func(t *testing.T) {
		ms := epicModelSet(t)
		// CBTie is a breaker, not a load: must fail loadScale resolution.
		ms.PowerConfig.Steps = append(ms.PowerConfig.Steps,
			sgmlconf.ProfileStep{AtMS: 100, Kind: "loadScale", Element: "CBTie", Value: 2})
		if _, err := Compile(ms); !errors.Is(err, ErrModel) {
			t.Fatalf("err = %v, want ErrModel", err)
		}
	})
}

func TestScenarioFromConfig(t *testing.T) {
	xmlData := []byte(`<Scenario name="file-sc" steps="12" seed="9">
  <Attacker name="redbox" switch="sw-TransLAN" ip="10.0.1.13"/>
  <Event name="blue" atStep="0" kind="deployIDS" sensor="blue" writers="SCADA,CPLC" threshold="5"/>
  <Event name="recon" atStep="2" kind="portScan" attacker="redbox" target="TIED1" ports="22,80,102,443,502"/>
  <Event name="fci" onAlert="tcp-port-scan" plus="1" kind="falseCommand" attacker="redbox" target="TIED1" ref="LD0/XCBR1.Pos.Oper" boolValue="false"/>
  <Event name="shed" onDeadBuses="1" kind="loadScale" element="Home1" value="0"/>
  <Event name="lossy" afterMs="500" kind="linkLoss" linkA="GIED1" linkB="sw-GenLAN" rate="0.02"/>
</Scenario>`)
	cfg, err := sgmlconf.ParseScenarioConfig(xmlData)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := ScenarioFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "file-sc" || sc.Steps != 12 || sc.Seed != 9 {
		t.Errorf("header = %+v", sc)
	}
	if len(sc.Attackers) != 1 || sc.Attackers[0].IP != netem.MustIPv4("10.0.1.13") {
		t.Errorf("attackers = %+v", sc.Attackers)
	}
	if len(sc.Events) != 5 {
		t.Fatalf("events = %d", len(sc.Events))
	}
	// The scenario actually runs.
	r := compiledEPIC(t)
	rep, err := RunScenario(context.Background(), r, sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err != "" {
		t.Fatalf("run aborted: %s", rep.Err)
	}
	if rep.Seed != 9 {
		t.Errorf("seed = %d, want the file's 9", rep.Seed)
	}
	for _, e := range rep.Events {
		if e.Err != "" {
			t.Errorf("event %q error: %s", e.Event, e.Err)
		}
	}
	// recon fires at 2, alert observed at 2, fci at 4.
	for _, e := range rep.Events {
		if e.Event == "fci" && e.Step != 4 {
			t.Errorf("fci step = %d, want 4", e.Step)
		}
	}
}

func TestScenarioConfigValidation(t *testing.T) {
	bad := []string{
		`<Scenario><Event kind="portScan"/></Scenario>`,                                                // no name
		`<Scenario name="x"><Event kind="explode" element="y"/></Scenario>`,                            // unknown kind
		`<Scenario name="x"><Event kind="openBreaker"/></Scenario>`,                                    // missing element
		`<Scenario name="x"><Event kind="portScan" target="T"/></Scenario>`,                            // missing attacker
		`<Scenario name="x"><Event atStep="1" afterMs="5" kind="openBreaker" element="B"/></Scenario>`, // two triggers
		`<Scenario name="x"><Attacker name="a" switch="s" ip="10.0.0.9"/>` +
			`<Event kind="portScan" attacker="a" target="T" ports="99999"/></Scenario>`, // bad port
		`<Scenario name="x"><Attacker name="a" ip="10.0.0.9"/></Scenario>`,           // attacker without switch
		`<Scenario name="x"><Event kind="linkFlap" linkA="a" linkB="b"/></Scenario>`, // flap without downSteps
	}
	for i, data := range bad {
		if _, err := sgmlconf.ParseScenarioConfig([]byte(data)); !errors.Is(err, sgmlconf.ErrConfig) {
			t.Errorf("case %d: err = %v, want ErrConfig", i, err)
		}
	}
}

func TestRunScenarioOnStartedRangeFails(t *testing.T) {
	r := compiledEPIC(t)
	if err := r.Start(context.Background(), false); err != nil {
		t.Fatal(err)
	}
	if _, err := RunScenario(context.Background(), r, &Scenario{Name: "x"}); !errors.Is(err, ErrScenario) {
		t.Errorf("err = %v, want ErrScenario", err)
	}
}
