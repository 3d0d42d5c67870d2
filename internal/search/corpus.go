package search

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// A regression corpus is a directory of minimized repros, three files per
// find, keyed by the oracle that flagged it:
//
//	<key>.scenario.xml  the minimized <Scenario> document
//	<key>.oracle        sidecar: oracle key, verified step cap, verdict
//	<key>.fingerprint   the pinned canonical RunReport fingerprint
//
// Replaying an entry means parsing the XML, running it under the sidecar's
// step cap, and asserting both the pinned fingerprint and the oracle's
// verdict — on a fresh compile or a fork.

// CorpusEntry is one checked-in minimized repro.
type CorpusEntry struct {
	Name        string // file stem, conventionally the oracle key
	XML         []byte
	Oracle      string
	MaxSteps    int
	Detail      string
	Fingerprint string
}

// WriteCorpus writes each find into dir (created if needed), one entry per
// find keyed by oracle.
func WriteCorpus(dir string, finds []Find) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, f := range finds {
		stem := filepath.Join(dir, f.Oracle)
		sidecar := fmt.Sprintf("oracle: %s\nmaxSteps: %d\ndetail: %s\n", f.Oracle, f.MaxSteps, f.Detail)
		if err := os.WriteFile(stem+".scenario.xml", f.XML, 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(stem+".oracle", []byte(sidecar), 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(stem+".fingerprint", []byte(f.Fingerprint), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// ReadCorpus loads every *.scenario.xml entry of dir with its sidecars,
// sorted by name.
func ReadCorpus(dir string) ([]CorpusEntry, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.scenario.xml"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []CorpusEntry
	for _, p := range paths {
		stem := strings.TrimSuffix(p, ".scenario.xml")
		e := CorpusEntry{Name: filepath.Base(stem)}
		if e.XML, err = os.ReadFile(p); err != nil {
			return nil, err
		}
		side, err := os.ReadFile(stem + ".oracle")
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(string(side), "\n") {
			key, val, ok := strings.Cut(line, ":")
			if !ok {
				continue
			}
			val = strings.TrimSpace(val)
			switch strings.TrimSpace(key) {
			case "oracle":
				e.Oracle = val
			case "maxSteps":
				if e.MaxSteps, err = strconv.Atoi(val); err != nil {
					return nil, fmt.Errorf("%w: corpus %s: bad maxSteps %q", ErrSearch, e.Name, val)
				}
			case "detail":
				e.Detail = val
			}
		}
		if e.Oracle == "" || e.MaxSteps <= 0 {
			return nil, fmt.Errorf("%w: corpus %s: incomplete sidecar", ErrSearch, e.Name)
		}
		fp, err := os.ReadFile(stem + ".fingerprint")
		if err != nil {
			return nil, err
		}
		e.Fingerprint = string(fp)
		out = append(out, e)
	}
	return out, nil
}
