package netem

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Device is anything attachable to the network fabric: switches and hosts.
// HandleFrame is invoked from the device's single worker goroutine, so device
// implementations need no internal locking against concurrent frame delivery.
type Device interface {
	Name() string
	HandleFrame(inPort int, f Frame)
}

// TapFunc observes frames traversing a link. dir is "a->b" or "b->a".
// The frame is borrowed for the duration of the call: a tap that retains the
// frame (or its payload) beyond its return must Clone it. This keeps the
// warm path copy-free for inspection-style taps (the IDS); the packet
// capture clones internally because it retains.
type TapFunc func(link *Link, dir string, f Frame)

// TamperFunc may rewrite or drop a frame in flight on a link. Returning
// ok=false drops the frame. Used for failure injection; host-level MITM goes
// through ARP spoofing instead.
type TamperFunc func(f Frame) (Frame, bool)

type endpoint struct {
	dev  string
	port int
}

// Link is a full-duplex cable between two device ports.
type Link struct {
	A, B endpoint

	// Precomputed tap direction labels ("a->b" / "b->a"), so the warm
	// transmit path performs no string building.
	dirAB, dirBA string

	mu       sync.Mutex
	latency  time.Duration
	lossRate float64 // 0..1, applied per frame with a deterministic generator
	up       bool
	tamper   TamperFunc
}

// SetLossRate sets the per-frame drop probability (0..1).
func (l *Link) SetLossRate(r float64) {
	l.mu.Lock()
	l.lossRate = r
	l.mu.Unlock()
}

// SetLatency changes the link's one-way propagation delay (scenario
// impairment injection; safe while the fabric is running).
func (l *Link) SetLatency(d time.Duration) {
	l.mu.Lock()
	l.latency = d
	l.mu.Unlock()
}

// Latency reports the link's one-way propagation delay.
func (l *Link) Latency() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.latency
}

// SetUp brings the link up or down (cable pull / restore).
func (l *Link) SetUp(up bool) {
	l.mu.Lock()
	l.up = up
	l.mu.Unlock()
}

// Up reports whether the link is carrying traffic.
func (l *Link) Up() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.up
}

// SetTamper installs a frame rewrite/drop hook (nil to remove).
func (l *Link) SetTamper(fn TamperFunc) {
	l.mu.Lock()
	l.tamper = fn
	l.mu.Unlock()
}

// Endpoints returns the two attachment points of the link.
func (l *Link) Endpoints() (devA string, portA int, devB string, portB int) {
	return l.A.dev, l.A.port, l.B.dev, l.B.port
}

func (l *Link) String() string {
	return fmt.Sprintf("%s[%d] <-> %s[%d]", l.A.dev, l.A.port, l.B.dev, l.B.port)
}

type inbound struct {
	port  int
	frame Frame
}

type devEntry struct {
	dev   Device
	inbox chan inbound
}

// inboxDepth is the per-device delivery queue length. The recycler depends on
// every inbox sharing this capacity, so a reclaimed channel is
// indistinguishable from a fresh one.
const inboxDepth = 4096

// InboxRecycler recycles drained device inbox channels across fabrics built
// from the same compiled artifacts. The per-device inbox (inboxDepth slots)
// dominates fabric construction cost at scale — ~200 KB of channel buffer per
// device that the runtime must zero — so a range fork that rebuilds its fabric
// from a recycler skips nearly all of that allocation. The recycler is
// deliberately NOT a global pool: a fresh compile keeps its plain
// make-per-device cost, and channels never migrate between unrelated models.
//
// Safety contract: a channel enters the free list only after the owning
// Network's Stop has removed every device entry under the network mutex and
// drained residual frames. Because deliverTo performs its (non-blocking) send
// while holding that same mutex whenever a recycler is attached, no sender can
// hold a reference to a reclaimed channel — late deliveries from latency
// timers or TCP retransmissions miss the map lookup and release their frame
// instead.
type InboxRecycler struct {
	mu   sync.Mutex
	free []chan inbound
}

// NewInboxRecycler returns an empty recycler, shareable by every fabric built
// from one compiled model's artifacts (concurrent forks included).
func NewInboxRecycler() *InboxRecycler { return &InboxRecycler{} }

// Len reports the number of idle channels held (tests, diagnostics).
func (rc *InboxRecycler) Len() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return len(rc.free)
}

func (rc *InboxRecycler) get() chan inbound {
	rc.mu.Lock()
	if n := len(rc.free); n > 0 {
		ch := rc.free[n-1]
		rc.free[n-1] = nil
		rc.free = rc.free[:n-1]
		rc.mu.Unlock()
		return ch
	}
	rc.mu.Unlock()
	return make(chan inbound, inboxDepth)
}

// put drains residual frames (releasing their payloads to the frame pool) and
// shelves the channel. Callers must guarantee exclusive ownership.
func (rc *InboxRecycler) put(ch chan inbound) {
	for {
		select {
		case m := <-ch:
			m.frame.release()
		default:
			rc.mu.Lock()
			rc.free = append(rc.free, ch)
			rc.mu.Unlock()
			return
		}
	}
}

// Errors reported by the fabric.
var (
	ErrDuplicateDevice = errors.New("netem: duplicate device name")
	ErrUnknownDevice   = errors.New("netem: unknown device")
	ErrPortInUse       = errors.New("netem: port already linked")
	ErrStarted         = errors.New("netem: network already started")
	ErrNotStarted      = errors.New("netem: network not started")
)

// Network is the emulated fabric: a registry of devices joined by links, with
// a worker goroutine per device delivering frames in arrival order.
type Network struct {
	mu      sync.Mutex
	devices map[string]*devEntry
	links   []*Link
	linkAt  map[endpoint]*Link
	taps    []TapFunc
	started bool
	done    chan struct{}
	wg      sync.WaitGroup
	rng     uint64 // deterministic loss generator

	transmitted atomic.Uint64 // frames accepted onto a cabled link (per hop)
	dropped     atomic.Uint64 // frames lost to loss-rate, tamper or full inboxes
	poolingOff  atomic.Bool   // reference path: plain allocations, no releases
	pool        payloadPool

	// recycler, when set, supplies device inbox channels and receives them
	// back at Stop (see InboxRecycler for the ownership rules).
	recycler *InboxRecycler
}

// NewNetwork returns an empty fabric.
func NewNetwork() *Network {
	return &Network{
		devices: make(map[string]*devEntry),
		linkAt:  make(map[endpoint]*Link),
		done:    make(chan struct{}),
		rng:     0x9E3779B97F4A7C15,
	}
}

// UseInboxRecycler attaches a recycler supplying this fabric's device inbox
// channels; Stop returns them, drained, for the next fabric built from the
// same artifacts. Must be called before any device is added. A recycled
// network gives up its device registry at Stop — Device and Topology return
// nothing afterwards — which is fine for the fork path, where a stopped range
// is never inspected again.
func (n *Network) UseInboxRecycler(rc *InboxRecycler) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.devices) > 0 {
		return fmt.Errorf("netem: recycler must be attached before devices are added")
	}
	n.recycler = rc
	return nil
}

// SetFramePooling toggles the pooled (zero-allocation) frame payload path.
// It is on by default; disabling it restores the reference copy-per-publish
// semantics — Host.AllocPayload returns fresh heap buffers and frames are
// never released to a pool — mirroring the StepAllSequential / dense-solver
// precedent of keeping the legacy path selectable. Delivered bytes, capture
// output and IDS verdicts are identical on both paths (see the differential
// tests in netem and ids).
func (n *Network) SetFramePooling(on bool) { n.poolingOff.Store(!on) }

// Stats returns the fabric's data-plane counters.
func (n *Network) Stats() DataPlaneStats {
	return DataPlaneStats{
		Transmitted: n.transmitted.Load(),
		Dropped:     n.dropped.Load(),
		PoolGets:    n.pool.gets.Load(),
		PoolHits:    n.pool.hits.Load(),
		PoolReturns: n.pool.returns.Load(),
	}
}

// AddDevice registers a device. Must be called before Start.
func (n *Network) AddDevice(d Device) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started {
		return ErrStarted
	}
	if _, dup := n.devices[d.Name()]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicateDevice, d.Name())
	}
	var inbox chan inbound
	if n.recycler != nil {
		inbox = n.recycler.get()
	} else {
		inbox = make(chan inbound, inboxDepth)
	}
	n.devices[d.Name()] = &devEntry{dev: d, inbox: inbox}
	return nil
}

// Connect cables devA's portA to devB's portB.
func (n *Network) Connect(devA string, portA int, devB string, portB int, latency time.Duration) (*Link, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.devices[devA]; !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDevice, devA)
	}
	if _, ok := n.devices[devB]; !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDevice, devB)
	}
	a := endpoint{devA, portA}
	b := endpoint{devB, portB}
	if _, used := n.linkAt[a]; used {
		return nil, fmt.Errorf("%w: %s[%d]", ErrPortInUse, devA, portA)
	}
	if _, used := n.linkAt[b]; used {
		return nil, fmt.Errorf("%w: %s[%d]", ErrPortInUse, devB, portB)
	}
	l := &Link{
		A: a, B: b, latency: latency, up: true,
		dirAB: devA + "->" + devB, dirBA: devB + "->" + devA,
	}
	n.links = append(n.links, l)
	n.linkAt[a] = l
	n.linkAt[b] = l
	return l, nil
}

// Tap registers a global capture callback observing every link crossing.
// Taps may be added while the fabric is running (scenario-driven sensor
// deployment): the transmit path snapshots the tap list under the lock, so a
// concurrent append never races with delivery — the new tap simply starts
// observing from the next frame on.
func (n *Network) Tap(fn TapFunc) {
	n.mu.Lock()
	n.taps = append(n.taps, fn)
	n.mu.Unlock()
}

// SeedRand reseeds the deterministic per-frame loss generator, so the draw
// sequence replays for a fixed seed. Frames consume draws in arrival order
// at Transmit, which is goroutine-scheduling-dependent under concurrent
// traffic — reseeding makes loss statistically reproducible, not a
// frame-exact replay. A zero seed falls back to the default constant.
func (n *Network) SeedRand(seed uint64) {
	n.mu.Lock()
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	n.rng = seed
	n.mu.Unlock()
}

// LinkBetween returns the first link joining the two named devices (in either
// orientation), or nil. Scenario impairment events address links this way.
func (n *Network) LinkBetween(devA, devB string) *Link {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, l := range n.links {
		if (l.A.dev == devA && l.B.dev == devB) || (l.A.dev == devB && l.B.dev == devA) {
			return l
		}
	}
	return nil
}

// Start launches the per-device workers.
func (n *Network) Start() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started {
		return ErrStarted
	}
	n.started = true
	for _, e := range n.devices {
		e := e
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			for {
				select {
				case <-n.done:
					return
				case m := <-e.inbox:
					e.dev.HandleFrame(m.port, m.frame)
				}
			}
		}()
	}
	return nil
}

// Stop halts delivery and waits for workers to drain. With a recycler
// attached, the device inbox channels are then reclaimed: entries are removed
// under the mutex (so no deliverTo can be holding one — its send happens
// inside the same critical section on the recycled path), residual frames are
// released, and the drained channels go back to the recycler for the next
// fabric built from the same artifacts.
func (n *Network) Stop() {
	n.mu.Lock()
	if !n.started {
		n.mu.Unlock()
		// Never-started fabric: no workers, no in-flight senders — its
		// inboxes can go straight back to the recycler (no-op without one).
		n.reclaimInboxes()
		return
	}
	select {
	case <-n.done:
		n.mu.Unlock()
		return // already stopped
	default:
	}
	close(n.done)
	n.mu.Unlock()
	n.wg.Wait()
	n.reclaimInboxes()
}

// ReclaimInboxes returns every device inbox to the attached recycler without
// waiting for the network to have run: the fabric gives up its device
// registry and becomes unusable. A compile-once root range whose fabric will
// only ever be forked, never driven, calls this so its idle channels seed the
// recycler instead of sitting stranded until the root's own Stop. No-op
// without a recycler, and on a started network (Stop owns reclaim there).
func (n *Network) ReclaimInboxes() {
	n.mu.Lock()
	if n.recycler == nil || n.started {
		n.mu.Unlock()
		return
	}
	entries := n.devices
	n.devices = make(map[string]*devEntry)
	n.mu.Unlock()
	for _, e := range entries {
		n.recycler.put(e.inbox)
	}
}

func (n *Network) reclaimInboxes() {
	if n.recycler == nil {
		return
	}
	n.mu.Lock()
	entries := n.devices
	n.devices = make(map[string]*devEntry)
	n.mu.Unlock()
	for _, e := range entries {
		n.recycler.put(e.inbox)
	}
}

// Dropped reports frames lost to loss rate, tamper drops, down links and
// inbox overflow.
func (n *Network) Dropped() uint64 { return n.dropped.Load() }

// Transmit sends a frame out of (dev, port). Unlinked ports silently drop, as
// on real hardware with no cable. Called by devices; safe from any goroutine.
//
// Transmit borrows a pooled frame: every exit that does not hand the frame to
// the next device releases the payload back to the pool.
func (n *Network) Transmit(dev string, port int, f Frame) {
	from := endpoint{dev, port}
	n.mu.Lock()
	link := n.linkAt[from]
	taps := n.taps
	n.mu.Unlock()
	if link == nil {
		f.release()
		return
	}

	link.mu.Lock()
	up := link.up
	tamper := link.tamper
	loss := link.lossRate
	latency := link.latency
	link.mu.Unlock()
	if !up {
		n.countDrop(f)
		return
	}
	if loss > 0 && n.randFloat() < loss {
		n.countDrop(f)
		return
	}
	if tamper != nil {
		nf, ok := tamper(f.Clone())
		if !ok {
			n.countDrop(f)
			return
		}
		f.release() // the tampered clone continues as a plain frame
		f = nf
	}
	n.transmitted.Add(1)

	var to endpoint
	dir := ""
	if from == link.A {
		to, dir = link.B, link.dirAB
	} else {
		to, dir = link.A, link.dirBA
	}
	// Taps borrow the frame for the call (see TapFunc); no defensive copy.
	for _, tap := range taps {
		tap(link, dir, f)
	}

	if latency > 0 {
		time.AfterFunc(latency, func() { n.deliverTo(to, f) })
		return
	}
	n.deliverTo(to, f)
}

// deliverTo enqueues the frame on the destination device's inbox, releasing
// it on every path that loses it.
func (n *Network) deliverTo(to endpoint, f Frame) {
	n.mu.Lock()
	entry := n.devices[to.dev]
	if entry == nil {
		n.mu.Unlock()
		f.release()
		return
	}
	if n.recycler == nil {
		// Reference path: entries are stable for the network's lifetime, so
		// the send can happen outside the lock (the original hot path).
		n.mu.Unlock()
		select {
		case entry.inbox <- inbound{port: to.port, frame: f}:
		case <-n.done:
			f.release()
		default:
			n.countDrop(f) // inbox overflow: congestion drop
		}
		return
	}
	// Recycled path: the (non-blocking) send stays inside the critical
	// section, so once Stop's reclaim has removed the entry under this mutex
	// no sender can still hold the channel — the invariant that makes handing
	// the channel to a sibling fork safe. Late async senders (link-latency
	// timers, TCP retransmissions) miss the lookup above and release instead.
	select {
	case entry.inbox <- inbound{port: to.port, frame: f}:
		n.mu.Unlock()
	case <-n.done:
		n.mu.Unlock()
		f.release()
	default:
		n.mu.Unlock()
		n.countDrop(f) // inbox overflow: congestion drop
	}
}

func (n *Network) countDrop(f Frame) {
	f.release()
	n.dropped.Add(1)
}

// randFloat is a cheap deterministic xorshift in [0,1).
func (n *Network) randFloat() float64 {
	n.mu.Lock()
	x := n.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	n.rng = x
	n.mu.Unlock()
	return float64(x>>11) / float64(1<<53)
}

// Topology renders the fabric as a deterministic text diagram; the Fig 4
// reproduction prints this for the generated EPIC network.
func (n *Network) Topology() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	names := make([]string, 0, len(n.devices))
	for name := range n.devices {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	fmt.Fprintf(&sb, "devices: %d, links: %d\n", len(n.devices), len(n.links))
	for _, name := range names {
		d := n.devices[name].dev
		switch h := d.(type) {
		case *Host:
			fmt.Fprintf(&sb, "  host   %-16s ip=%s mac=%s\n", name, h.IP(), h.MAC())
		case *Switch:
			fmt.Fprintf(&sb, "  switch %-16s ports=%d\n", name, h.NumPorts())
		default:
			fmt.Fprintf(&sb, "  device %-16s\n", name)
		}
	}
	links := append([]*Link(nil), n.links...)
	sort.Slice(links, func(i, j int) bool { return links[i].String() < links[j].String() })
	for _, l := range links {
		fmt.Fprintf(&sb, "  link   %s", l)
		if d := l.Latency(); d > 0 {
			fmt.Fprintf(&sb, " latency=%v", d)
		}
		if !l.Up() {
			sb.WriteString(" DOWN")
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// Device returns a registered device by name, or nil.
func (n *Network) Device(name string) Device {
	n.mu.Lock()
	defer n.mu.Unlock()
	if e, ok := n.devices[name]; ok {
		return e.dev
	}
	return nil
}

// Links returns all links (for scenario scripting, e.g. cable pulls).
func (n *Network) Links() []*Link {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]*Link(nil), n.links...)
}
