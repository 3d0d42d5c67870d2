package search

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// Oracle is an interestingness predicate over a completed run. Assess must
// depend only on the deterministic sections of the report (everything the
// fingerprint covers — events, truth, alerts, scores, grid, the abort error)
// so a verdict replays identically on a fresh compile or a fork; the Diag
// section is off-limits.
type Oracle interface {
	// Key names the oracle; finds and corpus sidecars are keyed by it.
	Key() string
	// Assess returns a human-readable verdict and whether the run is
	// interesting.
	Assess(sc *core.Scenario, rep *core.RunReport) (detail string, interesting bool)
}

// DefaultOracles is the built-in set: IDS blind spots, dead-bus cascades,
// solver divergence and step-budget blowups.
func DefaultOracles() []Oracle {
	return []Oracle{
		MissedDetection{},
		DeadBusCascade{Threshold: 3},
		SolverDivergence{},
		StepBudgetBlowup{},
	}
}

// OracleByKey resolves a key to its built-in oracle (corpus replay).
func OracleByKey(key string) (Oracle, error) {
	for _, o := range DefaultOracles() {
		if o.Key() == key {
			return o, nil
		}
	}
	return nil, fmt.Errorf("%w: unknown oracle %q", ErrSearch, key)
}

// MissedDetection flags ground-truth-injected-but-no-alert: a run where an
// IDS sensor was deployed and fired cleanly, yet at least one injected attack
// went undetected. This is the oracle that finds protocol blind spots — e.g.
// the sensor inspects MMS control writes towards port 102 but a ModbusTamper
// reaches the PLC over port 502 unseen.
type MissedDetection struct{}

// Key implements Oracle.
func (MissedDetection) Key() string { return "missed-detection" }

// Assess implements Oracle.
func (MissedDetection) Assess(_ *core.Scenario, rep *core.RunReport) (string, bool) {
	deployed := false
	for _, e := range rep.Events {
		if e.Fired && e.Err == "" && strings.HasPrefix(e.Action, "deploy IDS") {
			deployed = true
			break
		}
	}
	if !deployed {
		return "", false
	}
	var missed []string
	for _, tr := range rep.Truth {
		if !tr.Detected {
			missed = append(missed, fmt.Sprintf("%s (%s)", tr.Event, tr.Expect))
		}
	}
	if len(missed) == 0 {
		return "", false
	}
	return fmt.Sprintf("IDS deployed but %d injected attack(s) undetected: %s",
		len(missed), strings.Join(missed, ", ")), true
}

// DeadBusCascade flags runs whose closing grid state has at least Threshold
// de-energised buses — a fault or attack sequence that cascaded.
type DeadBusCascade struct{ Threshold int }

// Key implements Oracle.
func (DeadBusCascade) Key() string { return "dead-bus-cascade" }

// Assess implements Oracle.
func (o DeadBusCascade) Assess(_ *core.Scenario, rep *core.RunReport) (string, bool) {
	th := o.Threshold
	if th <= 0 {
		th = 3
	}
	if rep.Grid.DeadBuses < th {
		return "", false
	}
	return fmt.Sprintf("%d dead buses (threshold %d), open: %s",
		rep.Grid.DeadBuses, th, strings.Join(rep.Grid.OpenBreakers, ",")), true
}

// SolverDivergence flags runs whose final power flow failed to converge, or
// that aborted on a power-flow error mid-run.
type SolverDivergence struct{}

// Key implements Oracle.
func (SolverDivergence) Key() string { return "solver-divergence" }

// Assess implements Oracle.
func (SolverDivergence) Assess(_ *core.Scenario, rep *core.RunReport) (string, bool) {
	if !rep.Grid.Converged {
		return fmt.Sprintf("power flow diverged (islands=%d dead=%d)", rep.Grid.Islands, rep.Grid.DeadBuses), true
	}
	if strings.Contains(rep.Err, "power flow") {
		return "run aborted on power-flow failure: " + rep.Err, true
	}
	return "", false
}

// StepBudgetBlowup flags runs aborted by the WithMaxSteps budget: a mutated
// trigger pushed the scenario's derived step horizon past the cap, so the
// run wanted more simulation than its variant allows.
type StepBudgetBlowup struct{}

// Key implements Oracle.
func (StepBudgetBlowup) Key() string { return "step-budget" }

// Assess implements Oracle.
func (StepBudgetBlowup) Assess(_ *core.Scenario, rep *core.RunReport) (string, bool) {
	if !strings.Contains(rep.Err, "step budget") {
		return "", false
	}
	return rep.Err, true
}
