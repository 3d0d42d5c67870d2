package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

// synthRun builds a deterministic synthetic run record: a small RunReport
// whose fingerprint is a pure function of (variant, seed, attempt), exactly
// like a real campaign run's.
func synthRun(variant string, seed int64, attempt int) core.CampaignRun {
	rep := &core.RunReport{
		Scenario:  "synthetic",
		Seed:      seed,
		Steps:     5,
		Precision: 1,
		Recall:    1,
		Events: []core.EventOutcome{
			{Event: "probe", Action: "synthetic action", Fired: true, Step: int(seed % 5)},
		},
		Grid: core.GridReport{Converged: true},
	}
	run := core.CampaignRun{
		Variant: variant, Seed: seed, Attempt: attempt,
		Steps: 5, Precision: 1, Recall: 1,
		Report: rep,
	}
	run.Rehydrate()
	return run
}

// synthCampaign builds a minimal valid campaign declaration (the store only
// consults its name and spec hash).
func synthCampaign(name string) *core.Campaign {
	return &core.Campaign{
		Name:  name,
		Model: &core.ModelSet{Name: "m"},
		Variants: []core.CampaignVariant{
			{Name: "v", Scenario: &core.Scenario{Name: "s", Steps: 3}, Seeds: []int64{1, 2}},
		},
	}
}

func TestStoreMemoryRoundtrip(t *testing.T) {
	m := NewMemory()
	runs := []core.CampaignRun{
		synthRun("b", 2, 1),
		synthRun("a", 1, 1),
		synthRun("a", 1, 2),
	}
	for _, r := range runs {
		if err := m.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	// Aborted runs are not storable: the cell must stay pending.
	aborted := synthRun("a", 9, 1)
	aborted.Err = "context canceled"
	if err := m.Put(aborted); err != nil {
		t.Fatal(err)
	}
	if m.Done("a", 9, 1) {
		t.Fatal("aborted run must not mark its cell done")
	}
	if !m.Done("a", 1, 2) || m.Done("a", 3, 1) {
		t.Fatal("Done answers wrong cells")
	}
	rep, err := m.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 3 {
		t.Fatalf("Load returned %d runs, want 3", len(rep.Runs))
	}
	// Canonical (variant, seed, attempt) order, fingerprints rehydrated.
	want := []string{"a:1:1", "a:1:2", "b:2:1"}
	for i, r := range rep.Runs {
		got := (cellKey{r.Variant, r.Seed, r.Attempt}).String()
		if got != want[i] {
			t.Fatalf("run %d: got %s, want %s", i, got, want[i])
		}
		if r.FullFingerprint() == "" || r.Fingerprint == "" {
			t.Fatalf("run %d: fingerprint not rehydrated", i)
		}
	}
	if err := m.Finish(rep); err != nil {
		t.Fatal(err)
	}
	if rep.MerkleRoot == "" || m.Root() != rep.MerkleRoot {
		t.Fatal("Finish must seal and stamp the Merkle root")
	}
}

func TestStoreJSONLRoundtripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	c := synthCampaign("sweep")
	st, err := OpenJSONL(dir, c)
	if err != nil {
		t.Fatal(err)
	}
	puts := []core.CampaignRun{synthRun("v", 1, 1), synthRun("v", 2, 1)}
	for _, r := range puts {
		if err := st.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	aborted := synthRun("v", 3, 1)
	aborted.Err = "boom"
	if err := st.Put(aborted); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// A record written before campaigns lost their engine and data-plane
	// choice still carries those keys, on the run row and on its report.
	legacy := synthRun("v", 4, 1)
	puts = append(puts, legacy)
	payload, err := json.Marshal(runRecord{Run: legacy, Report: legacy.Report})
	if err != nil {
		t.Fatal(err)
	}
	payload = bytes.Replace(payload, []byte(`"run":{`), []byte(`"run":{"engine":"sequential","framePooling":false,`), 1)
	payload = bytes.Replace(payload, []byte(`"report":{`), []byte(`"report":{"Engine":"sequential","FramePooling":false,`), 1)
	f, err := os.OpenFile(filepath.Join(st.Dir(), runsFile), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(encodeFrame(payload)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the durable records come back, the aborted cell does not.
	st2, err := OpenJSONL(dir, c)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if !st2.Done("v", 1, 1) || !st2.Done("v", 2, 1) || !st2.Done("v", 4, 1) {
		t.Fatal("persisted cells lost across reopen")
	}
	if st2.Done("v", 3, 1) {
		t.Fatal("aborted run persisted")
	}
	rep, err := st2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != len(puts) {
		t.Fatalf("Load returned %d runs, want %d", len(rep.Runs), len(puts))
	}
	for i := range rep.Runs {
		got, want := &rep.Runs[i], &puts[i]
		if got.Report == nil {
			t.Fatalf("run %d: report not rehydrated", i)
		}
		if got.FullFingerprint() != want.FullFingerprint() {
			t.Fatalf("run %d: fingerprint changed across persistence", i)
		}
		if got.Steps != want.Steps || got.Precision != want.Precision {
			t.Fatalf("run %d: fields changed across persistence", i)
		}
	}
}

func TestStoreJSONLTornTailRecovered(t *testing.T) {
	dir := t.TempDir()
	c := synthCampaign("torn")
	st, err := OpenJSONL(dir, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(synthRun("v", 1, 1)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(st.Dir(), runsFile)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A crashed writer leaves half a frame behind.
	torn := append(append([]byte(nil), buf...), []byte("0000abcd 12")...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenJSONL(dir, c)
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	defer st2.Close()
	if !st2.Done("v", 1, 1) {
		t.Fatal("intact record lost during torn-tail recovery")
	}
	// The tail is gone and the file is append-clean again.
	if err := st2.Put(synthRun("v", 2, 1)); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if payloads, _, perr := parseFrames(after); perr != nil || len(payloads) != 2 {
		t.Fatalf("file not clean after recovery: %d frames, err=%v", len(payloads), perr)
	}
}

// sealStore runs the full happy path into a sealed store and returns the
// store dir and sealed root.
func sealStore(t *testing.T, dir string, c *core.Campaign, runs ...core.CampaignRun) string {
	t.Helper()
	st, err := OpenJSONL(dir, c)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, r := range runs {
		if err := st.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Finish(rep); err != nil {
		t.Fatal(err)
	}
	if rep.MerkleRoot == "" {
		t.Fatal("Finish left MerkleRoot empty")
	}
	return rep.MerkleRoot
}

func TestStoreVerifySealed(t *testing.T) {
	dir := t.TempDir()
	root := sealStore(t, dir, synthCampaign("audit"),
		synthRun("v", 1, 1), synthRun("v", 2, 1), synthRun("v", 2, 2))

	vs, err := Verify(dir)
	if err != nil {
		t.Fatalf("verify clean store: %v", err)
	}
	if len(vs) != 1 || vs[0].Root != root || vs[0].Runs != 3 || vs[0].Campaign != "audit" {
		t.Fatalf("unexpected verification: %+v", vs)
	}
	// Per-run inclusion proofs for every cell.
	for _, k := range []cellKey{{"v", 1, 1}, {"v", 2, 1}, {"v", 2, 2}} {
		if _, err := VerifyRun(dir, k.variant, k.seed, k.attempt); err != nil {
			t.Fatalf("VerifyRun(%s): %v", k, err)
		}
	}
	if _, err := VerifyRun(dir, "v", 7, 1); err == nil {
		t.Fatal("VerifyRun must fail for a cell the store never held")
	}
}

func TestStoreVerifyDetectsTamper(t *testing.T) {
	// Flip one byte at several positions (payload middle, last record's
	// tail) — every flip must be detected.
	for _, name := range []string{"mid", "tail"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			sealStore(t, dir, synthCampaign("tamper-"+name),
				synthRun("v", 1, 1), synthRun("v", 2, 1))
			subs, err := campaignDirs(dir)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(subs[0], runsFile)
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			pos := len(buf) / 2
			if name == "tail" {
				pos = len(buf) - 2 // inside the final record's payload
			}
			buf[pos] ^= 0x01
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Verify(dir); err == nil {
				t.Fatal("verify accepted a store with a flipped byte")
			}
		})
	}
}

func TestStoreVerifyDetectsDroppedRecord(t *testing.T) {
	dir := t.TempDir()
	sealStore(t, dir, synthCampaign("drop"), synthRun("v", 1, 1), synthRun("v", 2, 1))
	subs, err := campaignDirs(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(subs[0], runsFile)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate cleanly at the first frame boundary: every remaining frame is
	// intact, so only the seal's run count can catch the missing record.
	payloads, _, perr := parseFrames(buf)
	if perr != nil || len(payloads) != 2 {
		t.Fatalf("setup: %d frames, err=%v", len(payloads), perr)
	}
	first := encodeFrame(payloads[0])
	if err := os.WriteFile(path, first, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(dir); err == nil {
		t.Fatal("verify accepted a store with a dropped record")
	} else if !strings.Contains(err.Error(), "commits to") {
		t.Fatalf("expected seal-count violation, got: %v", err)
	}
}

func TestStoreVerifyRequiresSeal(t *testing.T) {
	dir := t.TempDir()
	c := synthCampaign("open")
	st, err := OpenJSONL(dir, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(synthRun("v", 1, 1)); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, err := Verify(dir); err == nil || !strings.Contains(err.Error(), "not sealed") {
		t.Fatalf("verify of an unsealed store must fail naming the cause, got: %v", err)
	}
}

func TestStoreSpecHashKeysLayout(t *testing.T) {
	dir := t.TempDir()
	a := synthCampaign("same-name")
	b := synthCampaign("same-name")
	b.Variants[0].Seeds = []int64{1, 2, 3} // edited sweep, same name
	sa, err := OpenJSONL(dir, a)
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()
	sb, err := OpenJSONL(dir, b)
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	if sa.Dir() == sb.Dir() {
		t.Fatal("an edited campaign must key a fresh record set")
	}
	// Same declaration (fresh values, same content) maps to the same layout.
	sa2, err := OpenJSONL(dir, synthCampaign("same-name"))
	if err != nil {
		t.Fatal(err)
	}
	defer sa2.Close()
	if sa2.Dir() != sa.Dir() {
		t.Fatal("identical declarations must share a record set")
	}
}
