// Package kvbus implements the cyber/physical coupling cache of the cyber range.
//
// The paper couples virtual IEDs to the power system simulator through a MySQL
// database used purely as a key-value "cache": the simulator writes grid
// measurements (voltage, current, power) under well-known keys, IEDs read them;
// IEDs write actuation commands (breaker open/close), the simulator reads them
// at each step (§III-B). This package is the in-process equivalent: a
// concurrent, versioned key-value store with the same read/write semantics.
// Every value on the range is a float measurement or a boolean command/status,
// so values are stored as numbers and rendered as text only by Snapshot.
package kvbus

import (
	"strconv"
	"sync"
)

// Value is one cache entry. Booleans are stored as 1 (true) and 0 (false).
type Value struct {
	Num     float64
	Version uint64 // increments on every write to the key
}

// Bus is the key-value cache. The zero value is not usable; call New.
type Bus struct {
	mu   sync.RWMutex
	data map[string]Value
}

// New returns an empty bus.
func New() *Bus {
	return &Bus{data: make(map[string]Value)}
}

// SetFloat writes a float measurement, bumping the key version.
func (b *Bus) SetFloat(key string, f float64) {
	b.mu.Lock()
	b.data[key] = Value{Num: f, Version: b.data[key].Version + 1}
	b.mu.Unlock()
}

// SetBool writes a boolean as 1/0.
func (b *Bus) SetBool(key string, v bool) {
	f := 0.0
	if v {
		f = 1
	}
	b.SetFloat(key, f)
}

// Get reads a key. ok is false when the key has never been written.
func (b *Bus) Get(key string) (Value, bool) {
	b.mu.RLock()
	v, ok := b.data[key]
	b.mu.RUnlock()
	return v, ok
}

// GetFloat reads a float-valued key, returning def when missing.
func (b *Bus) GetFloat(key string, def float64) float64 {
	if v, ok := b.Get(key); ok {
		return v.Num
	}
	return def
}

// GetBool reads a bool-valued key (any non-zero value is true), returning
// def when missing.
func (b *Bus) GetBool(key string, def bool) bool {
	if v, ok := b.Get(key); ok {
		return v.Num != 0
	}
	return def
}

// Len returns the number of stored keys.
func (b *Bus) Len() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.data)
}

// Snapshot returns a copy of the whole store with each value rendered as
// text: floats in their shortest round-trip form, booleans as "1"/"0".
func (b *Bus) Snapshot() map[string]string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make(map[string]string, len(b.data))
	for k, v := range b.data {
		out[k] = strconv.FormatFloat(v.Num, 'g', -1, 64)
	}
	return out
}

// Fork returns an independent bus pre-loaded with b's current contents,
// versions included, so version-sensitive readers (stale-read checks) behave
// on the fork exactly as they would on the original at the fork point.
// The compiled-range fork path uses this to duplicate the coupling cache
// per run without re-deriving its initial state.
func (b *Bus) Fork() *Bus {
	b.mu.RLock()
	defer b.mu.RUnlock()
	nb := &Bus{data: make(map[string]Value, len(b.data))}
	for k, v := range b.data {
		nb.data[k] = v
	}
	return nb
}

// Well-known key builders shared by the simulator and the device layer. The
// naming mirrors the paper's IED Config XML mapping: each IED declares which
// physical element (bus, line, breaker) a data point binds to.

// BusVoltageKey is the per-unit voltage magnitude at a bus.
func BusVoltageKey(sub, bus string) string { return "pw/" + sub + "/bus/" + bus + "/vm_pu" }

// BusAngleKey is the voltage angle (degrees) at a bus.
func BusAngleKey(sub, bus string) string { return "pw/" + sub + "/bus/" + bus + "/va_deg" }

// LineCurrentKey is the loading current (kA) on a line.
func LineCurrentKey(sub, line string) string { return "pw/" + sub + "/line/" + line + "/i_ka" }

// LinePKey is active power (MW) at the from-end of a line.
func LinePKey(sub, line string) string { return "pw/" + sub + "/line/" + line + "/p_mw" }

// LineQKey is reactive power (MVAr) at the from-end of a line.
func LineQKey(sub, line string) string { return "pw/" + sub + "/line/" + line + "/q_mvar" }

// BreakerStatusKey is the simulator-reported breaker state (1 closed, 0 open).
func BreakerStatusKey(sub, cb string) string { return "pw/" + sub + "/cb/" + cb + "/closed" }

// BreakerCmdKey is the IED-written breaker command (1 close, 0 open).
func BreakerCmdKey(sub, cb string) string { return "cmd/" + sub + "/cb/" + cb + "/close" }

// LoadPKey is the active power (MW) drawn by a load element.
func LoadPKey(sub, load string) string { return "pw/" + sub + "/load/" + load + "/p_mw" }

// GenPKey is the active power (MW) injected by a generator element.
func GenPKey(sub, gen string) string { return "pw/" + sub + "/gen/" + gen + "/p_mw" }
