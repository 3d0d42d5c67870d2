package kvbus

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
	"testing/quick"
)

func TestSetGetRoundTrip(t *testing.T) {
	b := New()
	b.SetFloat("a", 1.5)
	v, ok := b.Get("a")
	if !ok {
		t.Fatal("key missing after SetFloat")
	}
	if v.Num != 1.5 || v.Version != 1 {
		t.Errorf("got %+v, want {1.5 1}", v)
	}
	b.SetFloat("a", 2.5)
	v, _ = b.Get("a")
	if v.Version != 2 {
		t.Errorf("version = %d, want 2", v.Version)
	}
}

func TestGetMissing(t *testing.T) {
	b := New()
	if _, ok := b.Get("nope"); ok {
		t.Error("Get on empty bus returned ok")
	}
	if got := b.GetFloat("nope", 42); got != 42 {
		t.Errorf("GetFloat default = %v, want 42", got)
	}
	if got := b.GetBool("nope", true); !got {
		t.Error("GetBool default = false, want true")
	}
}

func TestTypedAccessors(t *testing.T) {
	// Floats and bools share one numeric store: a bool reads back as 1/0
	// through GetFloat, and any non-zero float reads as true through GetBool.
	tests := []struct {
		name  string
		set   func(b *Bus)
		wantF float64
		wantB bool
	}{
		{"3.25", func(b *Bus) { b.SetFloat("k", 3.25) }, 3.25, true},
		{"1", func(b *Bus) { b.SetFloat("k", 1) }, 1, true},
		{"0", func(b *Bus) { b.SetFloat("k", 0) }, 0, false},
		{"true", func(b *Bus) { b.SetBool("k", true) }, 1, true},
		{"false", func(b *Bus) { b.SetBool("k", false) }, 0, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b := New()
			tt.set(b)
			if got := b.GetFloat("k", -1); got != tt.wantF {
				t.Errorf("GetFloat = %v, want %v", got, tt.wantF)
			}
			if got := b.GetBool("k", !tt.wantB); got != tt.wantB {
				t.Errorf("GetBool = %v, want %v", got, tt.wantB)
			}
		})
	}
}

// TestFloatRoundTripProperty pins the numeric store: values come back
// unchanged, and Snapshot renders floats in shortest round-trip form and
// bools as "1"/"0".
func TestFloatRoundTripProperty(t *testing.T) {
	b := New()
	f := func(x float64, on bool) bool {
		b.SetFloat("f", x)
		b.SetBool("b", on)
		got := b.GetFloat("f", 0)
		if got != x && (x == x || got == got) { // NaN-safe
			return false
		}
		if b.GetBool("b", !on) != on {
			return false
		}
		want := "0"
		if on {
			want = "1"
		}
		snap := b.Snapshot()
		return snap["f"] == strconv.FormatFloat(x, 'g', -1, 64) && snap["b"] == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVersionMonotonicProperty(t *testing.T) {
	b := New()
	var last uint64
	f := func(x float64) bool {
		b.SetFloat("k", x)
		v, _ := b.Get("k")
		ok := v.Version == last+1
		last = v.Version
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	b := New()
	const workers, iters, keys = 8, 200, 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := "k" + strconv.Itoa(w%keys)
			for i := 0; i < iters; i++ {
				b.SetBool(key, i%2 == 0)
				b.Get(key)
			}
		}(w)
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		v, _ := b.Get("k" + strconv.Itoa(k))
		if want := uint64(workers / keys * iters); v.Version != want {
			t.Errorf("k%d version = %d, want %d writes", k, v.Version, want)
		}
	}
}

func TestKeyBuilders(t *testing.T) {
	tests := []struct {
		got, want string
	}{
		{BusVoltageKey("s1", "b1"), "pw/s1/bus/b1/vm_pu"},
		{BusAngleKey("s1", "b1"), "pw/s1/bus/b1/va_deg"},
		{LineCurrentKey("s1", "l1"), "pw/s1/line/l1/i_ka"},
		{LinePKey("s1", "l1"), "pw/s1/line/l1/p_mw"},
		{LineQKey("s1", "l1"), "pw/s1/line/l1/q_mvar"},
		{BreakerStatusKey("s1", "cb1"), "pw/s1/cb/cb1/closed"},
		{BreakerCmdKey("s1", "cb1"), "cmd/s1/cb/cb1/close"},
		{LoadPKey("s1", "ld1"), "pw/s1/load/ld1/p_mw"},
		{GenPKey("s1", "g1"), "pw/s1/gen/g1/p_mw"},
	}
	for i, tt := range tests {
		if tt.got != tt.want {
			t.Errorf("builder %d = %q, want %q", i, tt.got, tt.want)
		}
	}
}

func ExampleBus() {
	b := New()
	b.SetFloat(BusVoltageKey("epic", "MainBus"), 1.02)
	fmt.Println(b.GetFloat(BusVoltageKey("epic", "MainBus"), 0))
	// Output: 1.02
}
