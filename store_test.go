package sgml_test

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	sgml "repro"

	"repro/mms"
	"repro/netem"
)

// storeSweep is the differential workload: the same drill over 8 seeds, plus
// a second variant replaying seeds 1 and 2, so the store keys cells across
// variants.
func storeSweep(ms *sgml.ModelSet) *sgml.Campaign {
	drill := &sgml.Scenario{
		Name:  "store-drill",
		Steps: 8,
		Attackers: []sgml.AttackerSpec{
			{Name: "redbox", Switch: "sw-TransLAN", IP: netem.MustIPv4("10.0.1.13")},
		},
		Events: []sgml.Event{
			{Name: "blue", Trigger: sgml.At(0), Action: sgml.DeployIDS{
				AuthorizedWriters: []string{"SCADA", "CPLC"}, PortScanThreshold: 5}},
			{Name: "recon", Trigger: sgml.At(2), Action: sgml.PortScan{
				Attacker: "redbox", Target: "TIED1"}},
			{Name: "fci", Trigger: sgml.OnAlert(sgml.AlertPortScan).Plus(1), Action: sgml.FalseCommand{
				Attacker: "redbox", Target: "TIED1",
				Ref: "LD0/XCBR1.Pos.Oper", Value: mms.NewBool(false)}},
		},
	}
	return &sgml.Campaign{
		Name:  "store-sweep",
		Model: ms,
		Variants: []sgml.CampaignVariant{
			{Name: "parallel", Scenario: drill,
				Seeds: []int64{1, 2, 3, 4, 5, 6, 7, 8}},
			{Name: "replay", Scenario: drill, Seeds: []int64{1, 2}},
		},
	}
}

// interruptSink cancels the campaign context after `after` delivered runs —
// the in-process stand-in for killing the sweep mid-flight.
type interruptSink struct {
	cancel context.CancelFunc
	after  int32
	n      int32
}

func (s *interruptSink) Put(run sgml.CampaignRun) error {
	if atomic.AddInt32(&s.n, 1) == s.after {
		s.cancel()
	}
	return nil
}

func fingerprintMap(t *testing.T, rep *sgml.CampaignReport) map[string]string {
	t.Helper()
	out := make(map[string]string, len(rep.Runs))
	for i := range rep.Runs {
		run := &rep.Runs[i]
		if run.Fingerprint == "" {
			t.Fatalf("run %s:%d:%d has no fingerprint", run.Variant, run.Seed, run.Attempt)
		}
		out[runKey(run)] = run.Fingerprint
	}
	return out
}

func runKey(run *sgml.CampaignRun) string {
	return fmt.Sprintf("%s:%d:%d", run.Variant, run.Seed, run.Attempt)
}

// TestCampaignStoreResumeDifferential pins the load-bearing store contract:
// an interrupted sweep resumed from its store yields a fingerprint map and a
// Merkle root byte-identical to the same sweep run uninterrupted.
func TestCampaignStoreResumeDifferential(t *testing.T) {
	ms, err := sgml.EPICModelSet()
	if err != nil {
		t.Fatal(err)
	}
	t.Run("forked", func(t *testing.T) {
		// Baseline: the sweep run uninterrupted into its own store.
		baseDir := t.TempDir()
		base, err := sgml.RunCampaign(context.Background(), storeSweep(ms),
			sgml.WithWorkers(2), sgml.WithStore(baseDir))
		if err != nil {
			t.Fatal(err)
		}
		if !base.OK() || base.MerkleRoot == "" {
			t.Fatalf("baseline not clean/sealed: OK=%t root=%q\n%s", base.OK(), base.MerkleRoot, base)
		}
		baseFPs := fingerprintMap(t, base)
		if vs, err := sgml.VerifyStore(baseDir); err != nil || vs[0].Root != base.MerkleRoot {
			t.Fatalf("baseline store verify: %v (%+v)", err, vs)
		}

		// Interrupted: same sweep into a fresh store, killed after three
		// completed runs. (The kill races the dispatcher by design; if
		// every cell slipped through anyway the resume below is simply
		// trivial and the differential still holds.)
		resDir := t.TempDir()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		sink := &interruptSink{cancel: cancel, after: 3}
		interrupted, err := sgml.RunCampaign(ctx, storeSweep(ms),
			sgml.WithWorkers(2), sgml.WithStore(resDir), sgml.WithRunSink(sink))
		if err != nil {
			t.Fatal(err)
		}
		if interrupted.Failures > 0 {
			// Cancelled cells exist, so the sweep never sealed: the store
			// must refuse verification until resumed to completion.
			if interrupted.MerkleRoot != "" {
				t.Fatal("interrupted sweep sealed a Merkle root")
			}
			if _, err := sgml.VerifyStore(resDir); err == nil {
				t.Fatal("verify accepted an unsealed, interrupted store")
			}
		} else {
			t.Log("cancel raced to completion; resume below is trivial restoration")
		}

		// Resume: only the missing cells execute; restored cells are
		// marked. The final report must be indistinguishable from the
		// baseline in every deterministic respect.
		resumed, err := sgml.RunCampaign(context.Background(), storeSweep(ms),
			sgml.WithWorkers(2), sgml.WithStore(resDir), sgml.WithResume())
		if err != nil {
			t.Fatal(err)
		}
		if !resumed.OK() {
			t.Fatalf("resumed sweep not clean:\n%s", resumed)
		}
		if resumed.Resumed == 0 {
			t.Fatal("resume restored no cells")
		}
		marked := 0
		for i := range resumed.Runs {
			if resumed.Runs[i].Resumed {
				marked++
				if resumed.Runs[i].Report == nil {
					t.Fatalf("resumed run %d has no rehydrated report", i)
				}
			}
		}
		if marked != resumed.Resumed {
			t.Fatalf("Resumed count %d != marked runs %d", resumed.Resumed, marked)
		}
		if resumed.TotalRuns != base.TotalRuns {
			t.Fatalf("resumed TotalRuns = %d, want %d", resumed.TotalRuns, base.TotalRuns)
		}
		resFPs := fingerprintMap(t, resumed)
		for k, fp := range baseFPs {
			if resFPs[k] != fp {
				t.Errorf("run %s: resumed fingerprint %s != baseline %s", k, resFPs[k], fp)
			}
		}
		if resumed.MerkleRoot != base.MerkleRoot {
			t.Fatalf("resumed Merkle root %s != baseline %s", resumed.MerkleRoot, base.MerkleRoot)
		}
		// Both stores now verify to the same root, and every cell's
		// inclusion proof checks out.
		vs, err := sgml.VerifyStore(resDir)
		if err != nil {
			t.Fatalf("resumed store verify: %v", err)
		}
		if vs[0].Root != base.MerkleRoot {
			t.Fatalf("resumed store root %s != baseline %s", vs[0].Root, base.MerkleRoot)
		}
		for i := range resumed.Runs {
			run := &resumed.Runs[i]
			if _, err := sgml.VerifyStoreRun(resDir, run.Variant, run.Seed, run.Attempt); err != nil {
				t.Errorf("inclusion proof %s:%d:%d: %v", run.Variant, run.Seed, run.Attempt, err)
			}
		}
	})
}
