package core

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// TestCampaignForkDifferential is the differential fingerprint check behind
// the fork fast path: every (seed, attempt) run of a campaign — forked from
// the compile-once root on the derived step pool — must reproduce the
// fingerprint of a fresh Compile + RunScenario of the same seed, under the
// sharded engine, the sequential reference engine and the reference
// copy-per-publish data plane alike. Any divergence means a fork leaked or
// dropped state relative to a fresh compile.
func TestCampaignForkDifferential(t *testing.T) {
	ms := epicModelSet(t)
	sc := redBlueScenario()
	seeds := []int64{7, 11}
	c := &Campaign{Name: "fork-diff", Model: ms, Variants: []CampaignVariant{
		{Name: "drill", Scenario: sc, Seeds: seeds, Repeat: 2},
	}}
	rep, err := RunCampaign(context.Background(), c, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("campaign not OK:\n%s", rep.String())
	}

	fresh := func(seed int64, pooling bool, opts ...RunOption) string {
		t.Helper()
		r, err := Compile(ms)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Stop()
		r.Net.SetFramePooling(pooling)
		got, err := RunScenario(context.Background(), r, sc, append(opts, WithSeed(seed))...)
		if err != nil {
			t.Fatal(err)
		}
		return got.Fingerprint()
	}
	for _, seed := range seeds {
		refs := map[string]string{
			"fresh":             fresh(seed, true),
			"fresh sequential":  fresh(seed, true, WithSequential()),
			"fresh pooling off": fresh(seed, false),
		}
		for i := range rep.Runs {
			run := &rep.Runs[i]
			if run.Seed != seed {
				continue
			}
			for name, want := range refs {
				if run.fingerprint != want {
					t.Errorf("seed %d attempt %d: forked fingerprint diverged from %s\n--- %s ---\n%s\n--- forked ---\n%s",
						seed, run.Attempt, name, name, want, run.fingerprint)
				}
			}
		}
	}
}

// TestCampaignRootCompileFailure pins that a root compile error under the
// fork path is recorded on every affected run without aborting the sweep.
func TestCampaignRootCompileFailure(t *testing.T) {
	c := &Campaign{Name: "broken", Model: &ModelSet{Name: "empty"}, Variants: []CampaignVariant{
		{Name: "v", Scenario: &Scenario{Name: "s", Steps: 2}, Seeds: []int64{1, 2}},
	}}
	rep, err := RunCampaign(context.Background(), c, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures != 2 {
		t.Fatalf("failures = %d, want 2", rep.Failures)
	}
	for _, run := range rep.Runs {
		if !strings.Contains(run.Err, "compile:") {
			t.Errorf("run %s/%d: err = %q, want compile error", run.Variant, run.Seed, run.Err)
		}
	}
}

// TestCampaignEmptySeeds pins the fail-fast contract for zero-run sweeps: a
// non-nil empty seed list names the variant instead of silently contributing
// no runs, while a nil list keeps the scenario-seed default.
func TestCampaignEmptySeeds(t *testing.T) {
	ms := &ModelSet{Name: "m"}
	c := &Campaign{Name: "c", Model: ms, Variants: []CampaignVariant{
		{Name: "ok", Scenario: &Scenario{Name: "s", Seed: 3}},
		{Name: "hollow", Scenario: &Scenario{Name: "s"}, Seeds: []int64{}},
	}}
	_, err := c.normalizedVariants()
	if !errors.Is(err, ErrCampaign) {
		t.Fatalf("err = %v, want ErrCampaign", err)
	}
	if !strings.Contains(err.Error(), "hollow") {
		t.Errorf("err %q does not name the variant", err)
	}
	if !strings.Contains(err.Error(), "empty seed list") {
		t.Errorf("err %q does not explain the empty seed list", err)
	}
}
