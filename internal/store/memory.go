package store

import (
	"sync"

	"repro/internal/core"
)

// Memory is the in-process store: the same checkpoint/resume/commit
// semantics as the JSONL backend without durability. It exists for tests,
// single-process pipelines that want the Merkle commitment without touching
// disk, and as the behavioural reference the JSONL backend is diffed
// against.
type Memory struct {
	mu   sync.Mutex
	runs map[cellKey]core.CampaignRun
	root string
}

// NewMemory returns an empty in-memory store.
func NewMemory() *Memory {
	return &Memory{runs: make(map[cellKey]core.CampaignRun)}
}

// Put checkpoints one executed run; aborted runs are skipped (see
// storable). Re-putting a cell overwrites the prior record.
func (m *Memory) Put(run core.CampaignRun) error {
	if !storable(&run) {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.runs[cellKey{run.Variant, run.Seed, run.Attempt}] = run
	return nil
}

// Done reports whether the cell has a record.
func (m *Memory) Done(variant string, seed int64, attempt int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.runs[cellKey{variant, seed, attempt}]
	return ok
}

// Load reconstructs the stored population sorted by (variant, seed,
// attempt), fingerprints rehydrated.
func (m *Memory) Load() (*core.CampaignReport, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rep := &core.CampaignReport{Runs: make([]core.CampaignRun, 0, len(m.runs))}
	for _, run := range m.runs {
		run.Rehydrate()
		rep.Runs = append(rep.Runs, run)
	}
	sortRuns(rep.Runs)
	rep.TotalRuns = len(rep.Runs)
	return rep, nil
}

// Finish commits the completed sweep: the Merkle root over the report's runs
// is computed and stamped onto the report. RunCampaign calls it only for
// complete, fully-clean sweeps.
func (m *Memory) Finish(rep *core.CampaignReport) error {
	root := rootOverRuns(rep.Runs)
	m.mu.Lock()
	m.root = root
	m.mu.Unlock()
	rep.MerkleRoot = root
	return nil
}

// Root returns the root sealed by Finish ("" before commit).
func (m *Memory) Root() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.root
}
