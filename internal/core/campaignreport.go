package core

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strings"
	"time"
)

// CampaignRun records one run of a campaign sweep. The deterministic outcome
// lives in Report (and its Fingerprint hash); the timing fields are
// wall-clock measurements and vary run to run, like RunReport.Diag.
type CampaignRun struct {
	Variant string `json:"variant"`
	Seed    int64  `json:"seed"`
	Attempt int    `json:"attempt"` // 1-based repeat index
	// Fingerprint is the FNV-64a hash (hex) of the run's full
	// RunReport.Fingerprint — the compact JSON/display form. Determinism
	// grouping compares the full fingerprint text, not this hash.
	Fingerprint string        `json:"fingerprint,omitempty"`
	Steps       int           `json:"steps"`
	CompileTime time.Duration `json:"compileTimeNs"`
	// Duration is the scenario execution wall time (range start, steps,
	// attack I/O, teardown); StepTime is Duration / Steps, the effective
	// per-step wall cost of the run.
	Duration  time.Duration `json:"durationNs"`
	StepTime  time.Duration `json:"stepTimeNs"`
	Precision float64       `json:"precision"`
	Recall    float64       `json:"recall"`
	// EventErrors lists scenario events whose action failed at runtime —
	// surfaced here so a campaign can never bury a failed event.
	EventErrors []string `json:"eventErrors,omitempty"`
	Err         string   `json:"err,omitempty"`
	// Failure classifies a non-empty Err (panic, timeout, compile, scenario,
	// cancelled) and drives the retry policy; FailNone for clean runs and for
	// runs failed only through deterministic event errors.
	Failure RunFailure `json:"failure,omitempty"`
	// PanicStack is the recovered goroutine stack of a FailPanic run — the
	// sweep survives the panic, the evidence survives with the run.
	PanicStack string `json:"panicStack,omitempty"`
	// Retries is the attempt history of a retried cell (WithRetries): one
	// entry per failed attempt that was re-executed. Wall-clock bookkeeping
	// only — never part of the fingerprint or the store's Merkle leaves.
	Retries []RunRetry `json:"retries,omitempty"`

	// Resumed marks a run restored from a store (WithResume) instead of
	// executed by this process. A resumed run is indistinguishable from its
	// original execution in every deterministic field; only its wall-clock
	// timings are historical.
	Resumed bool `json:"resumed,omitempty"`

	// Report is the full structured run report, available in process for
	// drill-down; excluded from the campaign JSON, which carries the
	// aggregate view. Stores persist it separately so Load can rehydrate it.
	Report *RunReport `json:"-"`

	fingerprint string // full fingerprint text; determinism groups compare on it
	cancelled   bool   // cell never executed (context cancelled); withheld from sinks
}

// FullFingerprint returns the run's full canonical fingerprint text (the
// input of the displayed FNV hash). Determinism grouping and the store's
// Merkle leaves are computed over this text; empty for runs that never
// produced a report.
func (cr *CampaignRun) FullFingerprint() string { return cr.fingerprint }

// Rehydrate recomputes the run's fingerprint fields from its attached
// Report. Stores use it after decoding a persisted record: the full
// fingerprint text is derived state (a pure function of the report), so it
// is recomputed on load rather than trusted from disk.
func (cr *CampaignRun) Rehydrate() {
	if cr.Report == nil {
		return
	}
	cr.fingerprint = cr.Report.Fingerprint()
	cr.Fingerprint = fingerprintHash(cr.fingerprint)
}

// Failed reports whether the run is unusable: it errored, aborted, or any of
// its scenario events failed to execute.
func (cr *CampaignRun) Failed() bool {
	return cr.Err != "" || len(cr.EventErrors) > 0
}

// VariantSummary aggregates one variant's run population.
type VariantSummary struct {
	Variant string `json:"variant"`
	Runs    int    `json:"runs"`
	// Failures counts runs that errored or had failing events.
	Failures int `json:"failures"`

	// IDS scorecard distribution over successful runs.
	PrecisionMean float64 `json:"precisionMean"`
	PrecisionMin  float64 `json:"precisionMin"`
	RecallMean    float64 `json:"recallMean"`
	RecallMin     float64 `json:"recallMin"`
	// AlertLatencyMeanSteps is the mean detection delay in steps between an
	// injected attack firing and its ground-truth entry being detected
	// (-1 when the population produced no detections).
	AlertLatencyMeanSteps float64 `json:"alertLatencyMeanSteps"`

	// Performance distribution (wall-clock; non-deterministic).
	SolverCacheHitRate  float64       `json:"solverCacheHitRate"`
	DataPlanePktsPerSec float64       `json:"dataPlanePktsPerSec"`
	StepTimeP50         time.Duration `json:"stepTimeP50Ns"`
	StepTimeP90         time.Duration `json:"stepTimeP90Ns"`
	StepTimeMax         time.Duration `json:"stepTimeMaxNs"`

	// Determinism: every (variant, seed) group with >= 2 runs must agree on
	// its fingerprint.
	DeterminismGroups int  `json:"determinismGroups"`
	DeterminismOK     bool `json:"determinismOK"`
}

// DeterminismMismatch names a (variant, seed) group whose repeated runs
// produced diverging fingerprints — a replay-contract violation.
type DeterminismMismatch struct {
	Variant      string   `json:"variant"`
	Seed         int64    `json:"seed"`
	Fingerprints []string `json:"fingerprints"` // distinct hashes observed
}

// CampaignReport aggregates a campaign sweep: the per-run records, the
// per-variant distributions and the cross-seed determinism verdict. WriteJSON
// emits the machine-readable form; String renders the operator summary.
type CampaignReport struct {
	Campaign  string        `json:"campaign"`
	Workers   int           `json:"workers"`
	WallTime  time.Duration `json:"wallTimeNs"`
	TotalRuns int           `json:"totalRuns"`
	// Failures counts runs that errored or carried failing events; campaign
	// callers (rangectl) exit non-zero when it is > 0.
	Failures int `json:"failures"`
	// Resumed counts runs restored from a store instead of executed.
	Resumed int `json:"resumed,omitempty"`
	// Retried counts runs that needed at least one retry (WithRetries) before
	// reaching their recorded outcome.
	Retried int `json:"retried,omitempty"`
	// StoreDegraded flags a sweep whose attached store stopped accepting
	// appends (after in-place retries): the runs themselves are intact in
	// this report, but the store holds an incomplete record set and was left
	// unsealed — re-run with WithResume once the store is healthy to persist
	// the missing cells and seal. StoreErr carries the classified append
	// error.
	StoreDegraded bool                  `json:"storeDegraded,omitempty"`
	StoreErr      string                `json:"storeErr,omitempty"`
	Runs          []CampaignRun         `json:"runs"`
	Variants      []VariantSummary      `json:"variants"`
	Determinism   []DeterminismMismatch `json:"determinismMismatches,omitempty"`
	// MerkleRoot is the hex SHA-256 Merkle root over the sweep's run
	// fingerprints sorted by (variant, seed, attempt), stamped by the store
	// when a complete clean sweep is committed (sealed). Empty for sweeps
	// run without a store, cancelled sweeps and sweeps with failures. The
	// root is a pure function of the deterministic run outcomes, so an
	// interrupted-then-resumed sweep commits to the same root as an
	// uninterrupted one.
	MerkleRoot string `json:"merkleRoot,omitempty"`
}

// EventFailures returns every failed scenario event across the sweep, as
// "variant/seed#attempt event: error" lines.
func (rep *CampaignReport) EventFailures() []string {
	var out []string
	for i := range rep.Runs {
		run := &rep.Runs[i]
		for _, e := range run.EventErrors {
			out = append(out, fmt.Sprintf("%s/seed=%d#%d %s", run.Variant, run.Seed, run.Attempt, e))
		}
	}
	return out
}

// OK reports whether the sweep is clean: no failed runs, no failed events and
// no determinism mismatches.
func (rep *CampaignReport) OK() bool {
	return rep.Failures == 0 && len(rep.Determinism) == 0
}

// fingerprintHash compresses a full RunReport fingerprint to a 16-hex-digit
// FNV-64a digest.
func fingerprintHash(fp string) string {
	h := fnv.New64a()
	io.WriteString(h, fp)
	return fmt.Sprintf("%016x", h.Sum64())
}

// aggregate fills the variant summaries and determinism verdict from Runs.
// Variant order follows the campaign declaration; run records keep their
// expansion order regardless of which worker executed them, so the whole
// report (minus timings) is independent of scheduling.
func (rep *CampaignReport) aggregate(variants []CampaignVariant) {
	rep.TotalRuns = len(rep.Runs)
	rep.Failures = 0
	rep.Retried = 0
	byVariant := make(map[string][]*CampaignRun, len(variants))
	for i := range rep.Runs {
		run := &rep.Runs[i]
		if run.Failed() {
			rep.Failures++
		}
		if len(run.Retries) > 0 {
			rep.Retried++
		}
		byVariant[run.Variant] = append(byVariant[run.Variant], run)
	}
	for i := range variants {
		v := &variants[i]
		runs := byVariant[v.Name]
		sum := VariantSummary{Variant: v.Name, Runs: len(runs), DeterminismOK: true}

		// byFull groups per seed on the FULL fingerprint text (the hash is
		// display-only), mapping each distinct fingerprint to its hash.
		groups := map[int64]map[string]string{}
		var stepTimes []time.Duration
		var precSum, recSum, latSum, hitSum, ppsSum float64
		latN, perfN, scoreN := 0, 0, 0
		sum.PrecisionMin, sum.RecallMin = 1, 1
		for _, run := range runs {
			if run.Failed() {
				sum.Failures++
			}
			// Aborted runs (cancellation, step failure) stop at wall-clock-
			// dependent points, so their fingerprints are not evidence about
			// the replay contract; deterministically-failing events are (the
			// event error text is part of the fingerprint), so EventErrors
			// alone does not exclude a run from determinism grouping.
			if run.fingerprint != "" && run.Err == "" {
				g := groups[run.Seed]
				if g == nil {
					g = map[string]string{}
					groups[run.Seed] = g
				}
				g[run.fingerprint] = run.Fingerprint
			}
			// The scorecard and performance distributions cover successful
			// runs only; failed runs are counted, listed and excluded.
			if run.Report == nil || run.Failed() {
				continue
			}
			scoreN++
			precSum += run.Precision
			recSum += run.Recall
			if run.Precision < sum.PrecisionMin {
				sum.PrecisionMin = run.Precision
			}
			if run.Recall < sum.RecallMin {
				sum.RecallMin = run.Recall
			}
			if lat, n := alertLatency(run.Report); n > 0 {
				latSum += lat
				latN += n
			}
			d := run.Report.Diag
			if tot := d.SolverCacheHits + d.SolverCacheMisses; tot > 0 {
				hitSum += float64(d.SolverCacheHits) / float64(tot)
				perfN++
			}
			if run.Duration > 0 {
				ppsSum += float64(d.DataPlane.Transmitted) / run.Duration.Seconds()
			}
			if run.StepTime > 0 {
				stepTimes = append(stepTimes, run.StepTime)
			}
		}
		if scoreN > 0 {
			sum.PrecisionMean = precSum / float64(scoreN)
			sum.RecallMean = recSum / float64(scoreN)
			sum.DataPlanePktsPerSec = ppsSum / float64(scoreN)
		} else {
			sum.PrecisionMin, sum.RecallMin = 0, 0
		}
		if latN > 0 {
			sum.AlertLatencyMeanSteps = latSum / float64(latN)
		} else {
			sum.AlertLatencyMeanSteps = -1
		}
		if perfN > 0 {
			sum.SolverCacheHitRate = hitSum / float64(perfN)
		}
		sum.StepTimeP50 = quantile(stepTimes, 0.50)
		sum.StepTimeP90 = quantile(stepTimes, 0.90)
		sum.StepTimeMax = quantile(stepTimes, 1.0)

		seeds := make([]int64, 0, len(groups))
		for seed := range groups {
			seeds = append(seeds, seed)
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		for _, seed := range seeds {
			g := groups[seed]
			sum.DeterminismGroups++
			if len(g) > 1 {
				sum.DeterminismOK = false
				hashes := make([]string, 0, len(g))
				for _, h := range g {
					hashes = append(hashes, h)
				}
				sort.Strings(hashes)
				rep.Determinism = append(rep.Determinism, DeterminismMismatch{
					Variant: v.Name, Seed: seed, Fingerprints: hashes,
				})
			}
		}
		rep.Variants = append(rep.Variants, sum)
	}
}

// alertLatency sums, over the report's detected ground-truth entries, the
// step delay between the injecting event firing and the detection, returning
// the sum and the number of detections.
func alertLatency(report *RunReport) (sum float64, n int) {
	firedAt := make(map[string]int, len(report.Events))
	for _, ev := range report.Events {
		if ev.Fired {
			firedAt[ev.Event] = ev.Step
		}
	}
	for _, tr := range report.Truth {
		if !tr.Detected || tr.DetectedStep < 0 {
			continue
		}
		at, ok := firedAt[tr.Event]
		if !ok {
			continue
		}
		sum += float64(tr.DetectedStep - at)
		n++
	}
	return sum, n
}

// quantile returns the nearest-rank q-quantile of the samples (0 when empty).
func quantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// WriteJSON emits the machine-readable campaign report (indented JSON).
// Durations serialize as nanoseconds (the *Ns field names).
func (rep *CampaignReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// String renders the operator summary: the sweep header, one distribution
// line per variant, and any failures or determinism mismatches in full.
func (rep *CampaignReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== campaign %q ===\n", rep.Campaign)
	fmt.Fprintf(&sb, "%d runs · %d variants · %d workers · wall %v · %d failures",
		rep.TotalRuns, len(rep.Variants), rep.Workers, rep.WallTime.Round(time.Millisecond), rep.Failures)
	if rep.Resumed > 0 {
		fmt.Fprintf(&sb, " · %d resumed", rep.Resumed)
	}
	if rep.Retried > 0 {
		fmt.Fprintf(&sb, " · %d retried", rep.Retried)
	}
	sb.WriteString("\n")
	if rep.MerkleRoot != "" {
		fmt.Fprintf(&sb, "merkle root %s\n", rep.MerkleRoot)
	}
	if rep.StoreDegraded {
		fmt.Fprintf(&sb, "STORE DEGRADED: %s (store unsealed; resume once healthy)\n", rep.StoreErr)
	}
	sb.WriteString("\n--- variants ---\n")
	fmt.Fprintf(&sb, "%-16s %5s %5s %10s %8s %10s %10s %10s %-30s %s\n",
		"variant", "runs", "fail", "precision", "recall", "alert-lat", "cache-hit", "pkts/s", "step p50/p90/max", "determinism")
	for _, v := range rep.Variants {
		lat := "-"
		if v.AlertLatencyMeanSteps >= 0 {
			lat = fmt.Sprintf("%.1f", v.AlertLatencyMeanSteps)
		}
		det := "-"
		if v.DeterminismGroups > 0 {
			det = fmt.Sprintf("OK (%d groups)", v.DeterminismGroups)
			if !v.DeterminismOK {
				det = "MISMATCH"
			}
		}
		fmt.Fprintf(&sb, "%-16s %5d %5d %10.2f %8.2f %10s %10.2f %10.0f %-30s %s\n",
			v.Variant, v.Runs, v.Failures, v.PrecisionMean, v.RecallMean, lat,
			v.SolverCacheHitRate, v.DataPlanePktsPerSec,
			fmt.Sprintf("%v/%v/%v", v.StepTimeP50.Round(time.Microsecond),
				v.StepTimeP90.Round(time.Microsecond), v.StepTimeMax.Round(time.Microsecond)),
			det)
	}
	var failed []*CampaignRun
	for i := range rep.Runs {
		if rep.Runs[i].Failed() {
			failed = append(failed, &rep.Runs[i])
		}
	}
	if len(failed) > 0 {
		sb.WriteString("\n--- failed runs ---\n")
		for _, run := range failed {
			fmt.Fprintf(&sb, "%s seed=%d attempt=%d", run.Variant, run.Seed, run.Attempt)
			if run.Err != "" {
				if run.Failure != FailNone {
					fmt.Fprintf(&sb, "  ERROR(%s): %s", run.Failure, run.Err)
				} else {
					fmt.Fprintf(&sb, "  ERROR: %s", run.Err)
				}
			}
			if len(run.Retries) > 0 {
				fmt.Fprintf(&sb, "  [%d retries]", len(run.Retries))
			}
			sb.WriteString("\n")
			for _, e := range run.EventErrors {
				fmt.Fprintf(&sb, "    event %s\n", e)
			}
		}
	}
	if len(rep.Determinism) > 0 {
		sb.WriteString("\n--- determinism mismatches ---\n")
		for _, m := range rep.Determinism {
			fmt.Fprintf(&sb, "%s seed=%d: %s\n", m.Variant, m.Seed, strings.Join(m.Fingerprints, " vs "))
		}
	}
	return sb.String()
}
