// Package store persists campaign results and anchors them in a Merkle
// commitment, so a sweep survives its process and a published result set is
// independently checkable.
//
// The campaign engine (internal/core) streams every executed run through its
// RunSink chain; this package supplies the sinks that remember: an in-memory
// store for tests and single-process pipelines, and a durable
// append-only JSONL directory store whose records survive crashes
// (length/CRC-framed, fsync'd per record, torn tails recovered on reopen).
// A store answers three questions — Put (checkpoint this run), Done (is this
// cell already finished?), Load (reconstruct the persisted population) — and
// commits a finished sweep by sealing it under a Merkle root over the run
// fingerprints, from which per-run inclusion proofs are produced and
// verified (see merkle.go and Verify).
//
// core must not import this package (it would invert the dependency
// direction), so the backends satisfy core.CampaignStore structurally and
// the wiring lives in the public sgml layer (WithStore / WithResume). Both
// backends are safe for concurrent Put/Done calls; Load is only called
// before dispatch starts.
package store

import (
	"fmt"
	"sort"

	"repro/internal/core"
)

// cellKey identifies one cell of a sweep matrix.
type cellKey struct {
	variant string
	seed    int64
	attempt int
}

func (k cellKey) less(o cellKey) bool {
	if k.variant != o.variant {
		return k.variant < o.variant
	}
	if k.seed != o.seed {
		return k.seed < o.seed
	}
	return k.attempt < o.attempt
}

func (k cellKey) String() string {
	return fmt.Sprintf("%s:%d:%d", k.variant, k.seed, k.attempt)
}

// storable reports whether a run belongs in a store: it executed (cancelled
// cells never reach sinks, but the check is cheap insurance) and did not
// abort. Aborted runs (Err != "") stop at wall-clock-dependent points — they
// are not evidence, and persisting them would mark the cell done and stop a
// resume from retrying it. Deterministic event failures (EventErrors with an
// empty Err) are real outcomes and are persisted.
func storable(run *core.CampaignRun) bool {
	return run.Err == "" && run.Report != nil
}

// leafContent is the byte string a run contributes to the Merkle tree: its
// cell identity and full canonical fingerprint text, unit-separated. The
// commitment therefore covers exactly the deterministic projection of the
// sweep — identical for an interrupted-then-resumed run and an
// uninterrupted one.
func leafContent(run *core.CampaignRun) []byte {
	return []byte(fmt.Sprintf("%s\x1f%d\x1f%d\x1f%s", run.Variant, run.Seed, run.Attempt, run.FullFingerprint()))
}

// sortRuns orders runs by (variant, seed, attempt) — the canonical store
// order used for Load results and Merkle leaves.
func sortRuns(runs []core.CampaignRun) {
	sort.Slice(runs, func(i, j int) bool {
		a, b := &runs[i], &runs[j]
		return cellKey{a.Variant, a.Seed, a.Attempt}.less(cellKey{b.Variant, b.Seed, b.Attempt})
	})
}

// rootOverRuns computes the hex Merkle root committing to the given runs
// (any order; sorted internally). Empty populations have no root.
func rootOverRuns(runs []core.CampaignRun) string {
	if len(runs) == 0 {
		return ""
	}
	sorted := append([]core.CampaignRun(nil), runs...)
	sortRuns(sorted)
	leaves := make([][]byte, len(sorted))
	for i := range sorted {
		leaves[i] = leafContent(&sorted[i])
	}
	return MerkleRoot(leaves)
}
