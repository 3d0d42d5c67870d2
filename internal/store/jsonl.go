package store

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
)

// JSONL is the durable store: an append-only directory store in which
// every executed run is one framed, fsync'd JSON record. A store directory
// holds one subdirectory per campaign, keyed by the campaign's name and the
// content hash of its normalized spec (Campaign.SpecHash) — an edited
// campaign can never resume into a stale record set:
//
//	DIR/
//	  <name>-<spechash12>/
//	    runs.jsonl   one frame per checkpointed run, append-only
//	    root.json    Merkle seal, written only for complete clean sweeps
//
// Each runs.jsonl frame is "LLLLLLLL CCCCCCCC payload\n" — payload length
// and CRC32 (IEEE) in fixed-width hex — and is fsync'd before Put returns,
// so a crash loses at most the in-flight record. Reopening tolerates a torn
// tail (the partial frame is truncated away and its cell simply re-executes
// on resume); Verify parses strictly, where any damaged frame is evidence of
// tampering, not a crash.
type JSONL struct {
	dir      string // campaign subdirectory (not the user-facing root dir)
	campaign string
	specHash string

	mu         sync.Mutex
	f          *os.File
	runs       map[cellKey]core.CampaignRun
	appendHook func() error // fault-injection seam; see SetAppendHook
}

// runRecord is the persisted form of one run: the run row plus its full
// RunReport (excluded from CampaignRun's own JSON). The fingerprint fields
// are derived state and are recomputed from the report on load, never
// trusted from disk.
type runRecord struct {
	Run    core.CampaignRun `json:"run"`
	Report *core.RunReport  `json:"report"`
}

// sealRecord is root.json: the Merkle commitment of a completed sweep.
type sealRecord struct {
	Campaign string `json:"campaign"`
	SpecHash string `json:"specHash"`
	Root     string `json:"root"`
	// Runs is the distinct-cell count the root commits to; Verify checks it
	// against the record set, so dropping records is as detectable as
	// altering them.
	Runs int `json:"runs"`
}

const (
	runsFile = "runs.jsonl"
	sealFile = "root.json"
)

// OpenJSONL opens (creating if needed) the durable store for the campaign
// under dir, replaying any existing records into the resume index. The
// campaign keys its subdirectory by name and spec hash; opening fails if the
// campaign itself does not validate.
func OpenJSONL(dir string, c *core.Campaign) (*JSONL, error) {
	hash, err := c.SpecHash()
	if err != nil {
		return nil, err
	}
	name := c.Name
	if name == "" {
		name = "campaign"
	}
	sub := filepath.Join(dir, fmt.Sprintf("%s-%s", sanitize(name), hash[:12]))
	if err := os.MkdirAll(sub, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &JSONL{dir: sub, campaign: name, specHash: hash, runs: make(map[cellKey]core.CampaignRun)}

	path := filepath.Join(sub, runsFile)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	records, goodLen, _ := parseFrames(buf)
	if goodLen < len(buf) {
		// Torn tail from a crashed writer: drop the partial frame so the
		// file is append-clean again. The lost cell re-executes on resume.
		if err := f.Truncate(int64(goodLen)); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: truncating torn tail: %w", err)
		}
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	for i := range records {
		run, err := decodeRecord(records[i])
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("store: %s record %d: %w", runsFile, i, err)
		}
		s.runs[cellKey{run.Variant, run.Seed, run.Attempt}] = run
	}
	s.f = f
	return s, nil
}

// sanitize maps a campaign name onto the filesystem-safe alphabet.
func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '_', r == '-':
			return r
		default:
			return '_'
		}
	}, name)
}

// Dir returns the campaign's subdirectory inside the store.
func (s *JSONL) Dir() string { return s.dir }

// SpecHash returns the campaign spec hash keying this store.
func (s *JSONL) SpecHash() string { return s.specHash }

// SetAppendHook installs a fault-injection hook invoked (under the store
// lock, so invocations are serialized) at the start of every storable Put: a
// non-nil return aborts the append before anything is written, exactly as a
// failing write would. Test-only seam for the chaos suites
// (internal/faultinject); a nil hook (the default) costs nothing.
func (s *JSONL) SetAppendHook(h func() error) {
	s.mu.Lock()
	s.appendHook = h
	s.mu.Unlock()
}

// Put checkpoints one executed run: frame, append, fsync. Aborted runs are
// skipped (see storable), so their cells re-execute on resume.
func (s *JSONL) Put(run core.CampaignRun) error {
	if !storable(&run) {
		return nil
	}
	payload, err := json.Marshal(runRecord{Run: run, Report: run.Report})
	if err != nil {
		return fmt.Errorf("store: encoding run: %w", err)
	}
	frame := encodeFrame(payload)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.appendHook != nil {
		if err := s.appendHook(); err != nil {
			return fmt.Errorf("store: appending run: %w", err)
		}
	}
	if _, err := s.f.Write(frame); err != nil {
		return fmt.Errorf("store: appending run: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("store: fsync: %w", err)
	}
	s.runs[cellKey{run.Variant, run.Seed, run.Attempt}] = run
	return nil
}

// Done reports whether the cell has a persisted record.
func (s *JSONL) Done(variant string, seed int64, attempt int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.runs[cellKey{variant, seed, attempt}]
	return ok
}

// Load reconstructs the persisted population sorted by (variant, seed,
// attempt), reports attached and fingerprints rehydrated.
func (s *JSONL) Load() (*core.CampaignReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep := &core.CampaignReport{Campaign: s.campaign, Runs: make([]core.CampaignRun, 0, len(s.runs))}
	for _, run := range s.runs {
		rep.Runs = append(rep.Runs, run)
	}
	sortRuns(rep.Runs)
	rep.TotalRuns = len(rep.Runs)
	return rep, nil
}

// Finish seals the completed sweep: the Merkle root over the persisted
// records is computed, cross-checked against the report (every cell of the
// sweep must be on disk and agree), written atomically as root.json, and
// stamped onto the report. RunCampaign calls it only for complete,
// fully-clean sweeps; a cancelled or failing sweep leaves the store
// unsealed so a later resume can finish it.
func (s *JSONL) Finish(rep *core.CampaignReport) error {
	s.mu.Lock()
	stored := make([]core.CampaignRun, 0, len(s.runs))
	for _, run := range s.runs {
		stored = append(stored, run)
	}
	s.mu.Unlock()
	if len(stored) != len(rep.Runs) {
		return fmt.Errorf("store: seal: %d records on disk, %d runs in report", len(stored), len(rep.Runs))
	}
	root := rootOverRuns(stored)
	if repRoot := rootOverRuns(rep.Runs); repRoot != root {
		return fmt.Errorf("store: seal: persisted records disagree with the report (disk root %s, report root %s)", root, repRoot)
	}
	seal := sealRecord{Campaign: s.campaign, SpecHash: s.specHash, Root: root, Runs: len(stored)}
	payload, err := json.MarshalIndent(seal, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encoding seal: %w", err)
	}
	tmp := filepath.Join(s.dir, sealFile+".tmp")
	if err := os.WriteFile(tmp, append(payload, '\n'), 0o644); err != nil {
		return fmt.Errorf("store: writing seal: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, sealFile)); err != nil {
		return fmt.Errorf("store: committing seal: %w", err)
	}
	rep.MerkleRoot = root
	return nil
}

// Close releases the store's file handle.
func (s *JSONL) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}

// decodeRecord decodes one persisted frame payload back into a run, report
// reattached and fingerprint recomputed from the report.
func decodeRecord(payload []byte) (core.CampaignRun, error) {
	var rec runRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return core.CampaignRun{}, err
	}
	rec.Run.Report = rec.Report
	rec.Run.Rehydrate()
	return rec.Run, nil
}

// --- framing ---

// frameHeaderLen is len("LLLLLLLL CCCCCCCC ").
const frameHeaderLen = 18

// encodeFrame wraps a payload in the length/CRC frame.
func encodeFrame(payload []byte) []byte {
	out := make([]byte, 0, frameHeaderLen+len(payload)+1)
	out = append(out, fmt.Sprintf("%08x %08x ", len(payload), crc32.ChecksumIEEE(payload))...)
	out = append(out, payload...)
	return append(out, '\n')
}

// parseFrames walks the buffer frame by frame, returning the payloads of
// every intact frame, the byte length of that intact prefix, and the error
// describing the first damaged frame (nil if the buffer parses to the end).
// Callers choose the semantics: opening for append tolerates a damaged tail
// (truncate at goodLen and move on), verification treats any error as
// tamper evidence.
func parseFrames(buf []byte) (payloads [][]byte, goodLen int, err error) {
	off := 0
	for off < len(buf) {
		rest := buf[off:]
		if len(rest) < frameHeaderLen {
			return payloads, off, fmt.Errorf("truncated frame header at offset %d", off)
		}
		if rest[8] != ' ' || rest[17] != ' ' {
			return payloads, off, fmt.Errorf("malformed frame header at offset %d", off)
		}
		n, err := strconv.ParseUint(string(rest[0:8]), 16, 32)
		if err != nil {
			return payloads, off, fmt.Errorf("bad frame length at offset %d: %v", off, err)
		}
		sum, err := strconv.ParseUint(string(rest[9:17]), 16, 32)
		if err != nil {
			return payloads, off, fmt.Errorf("bad frame checksum at offset %d: %v", off, err)
		}
		end := frameHeaderLen + int(n)
		if len(rest) < end+1 {
			return payloads, off, fmt.Errorf("truncated frame payload at offset %d", off)
		}
		payload := rest[frameHeaderLen:end]
		if rest[end] != '\n' {
			return payloads, off, fmt.Errorf("missing frame terminator at offset %d", off)
		}
		if crc32.ChecksumIEEE(payload) != uint32(sum) {
			return payloads, off, fmt.Errorf("frame checksum mismatch at offset %d", off)
		}
		payloads = append(payloads, payload)
		off += end + 1
	}
	return payloads, off, nil
}
