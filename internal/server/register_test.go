package server

import (
	"bufio"
	"errors"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"kairos/internal/cloud"
	"kairos/internal/models"
)

// hookedInstance is a fake instance server that accepts any number of
// controller connections. Each connection calls beforeHello (when set)
// before announcing typeName/model, completes the handshake, discards
// whatever the controller sends and reports on closed once the
// controller hangs up.
type hookedInstance struct {
	addr   string
	closed chan struct{} // one value per connection the peer closed
}

func startHookedInstance(t *testing.T, typeName, model string, beforeHello func()) *hookedInstance {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	h := &hookedInstance{addr: ln.Addr().String(), closed: make(chan struct{}, 16)}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if beforeHello != nil {
					beforeHello()
				}
				br := bufio.NewReader(conn)
				var ack HelloAck
				if WriteFrame(conn, Hello{TypeName: typeName, Model: model, Proto: ProtoBinary}) != nil ||
					ReadFrame(br, &ack) != nil {
					return
				}
				io.Copy(io.Discard, br)
				h.closed <- struct{}{}
			}()
		}
	}()
	return h
}

// gate counts handshakes in flight: each arrival waits until n are in
// flight at once (or a timeout passes) and the peak is recorded. A
// serial dialer never opens it, so its peak stays at 1.
type gate struct {
	mu      sync.Mutex
	n, in   int
	peak    int
	opened  chan struct{}
	timeout time.Duration
}

func newGate(n int) *gate {
	return &gate{n: n, opened: make(chan struct{}), timeout: 2 * time.Second}
}

func (g *gate) arrive() {
	g.mu.Lock()
	g.in++
	g.peak = max(g.peak, g.in)
	if g.in == g.n {
		close(g.opened)
	}
	g.mu.Unlock()
	select {
	case <-g.opened:
	case <-time.After(g.timeout):
	}
	g.mu.Lock()
	g.in--
	g.mu.Unlock()
}

// refusedAddr returns a loopback address nothing listens on.
func refusedAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func fleetAddrs(c *Controller) []string {
	var out []string
	for _, in := range c.Stats().Instances {
		out = append(out, in.Addr)
	}
	return out
}

// TestAddInstancesHandshakesConcurrently: NewMultiController has every
// handshake in flight at once — each fake holds its banner until all
// of its siblings are connected.
func TestAddInstancesHandshakesConcurrently(t *testing.T) {
	t.Parallel()
	m := models.MustByName("NCF")
	const n = 6
	g := newGate(n)
	var addrs []string
	for i := 0; i < n; i++ {
		addrs = append(addrs, startHookedInstance(t, cloud.R5nLarge.Name, m.Name, g.arrive).addr)
	}
	ctrl, err := NewController(m.Name, &LeastBacklog{}, 1, m.Latency, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	g.mu.Lock()
	peak := g.peak
	g.mu.Unlock()
	if peak != n {
		t.Fatalf("peak handshakes in flight = %d, want all %d at once", peak, n)
	}
	if got := fleetAddrs(ctrl); !slices.Equal(got, addrs) {
		t.Fatalf("fleet order %v, want %v", got, addrs)
	}
}

// TestAddInstancesRegistersInArgumentOrder: the first address finishes
// its handshake last, yet registers first — on the constructor and on
// a running controller alike.
func TestAddInstancesRegistersInArgumentOrder(t *testing.T) {
	t.Parallel()
	m := models.MustByName("NCF")
	build := func() []string {
		var others sync.WaitGroup
		others.Add(3)
		slow := startHookedInstance(t, cloud.G4dnXlarge.Name, m.Name, func() {
			others.Wait()
			time.Sleep(20 * time.Millisecond) // their acks land first
		})
		addrs := []string{slow.addr}
		for i := 0; i < 3; i++ {
			addrs = append(addrs, startHookedInstance(t, cloud.R5nLarge.Name, m.Name, others.Done).addr)
		}
		return addrs
	}
	addrs := build()
	ctrl, err := NewController(m.Name, &LeastBacklog{}, 1, m.Latency, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	if got := fleetAddrs(ctrl); !slices.Equal(got, addrs) {
		t.Fatalf("constructor fleet order %v, want argument order %v", got, addrs)
	}

	more := build()
	types, errs := ctrl.AddInstances(more)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("AddInstances[%d]: %v", i, err)
		}
	}
	wantTypes := []string{cloud.G4dnXlarge.Name, cloud.R5nLarge.Name, cloud.R5nLarge.Name, cloud.R5nLarge.Name}
	if !slices.Equal(types, wantTypes) {
		t.Fatalf("AddInstances types %v, want %v", types, wantTypes)
	}
	if got := fleetAddrs(ctrl); !slices.Equal(got, append(slices.Clone(addrs), more...)) {
		t.Fatalf("running fleet order %v, want %v then %v", got, addrs, more)
	}
}

// TestNewMultiControllerFailureClosesEveryConnection: one refused and
// one wrong-model address fail the constructor with the first failure
// in address order, and every connection it opened is closed.
func TestNewMultiControllerFailureClosesEveryConnection(t *testing.T) {
	t.Parallel()
	m := models.MustByName("NCF")
	var good []*hookedInstance
	for i := 0; i < 3; i++ {
		good = append(good, startHookedInstance(t, cloud.R5nLarge.Name, m.Name, nil))
	}
	wrong := startHookedInstance(t, cloud.R5nLarge.Name, "MT-WND", nil)
	refused := refusedAddr(t)
	addrs := []string{good[0].addr, refused, good[1].addr, wrong.addr, good[2].addr}
	ctrl, err := NewController(m.Name, &LeastBacklog{}, 1, m.Latency, addrs)
	if err == nil {
		ctrl.Close()
		t.Fatal("a refused address must fail the constructor")
	}
	if !strings.Contains(err.Error(), "dialing "+refused) {
		t.Fatalf("error %q, want the refused dial (first failure in address order)", err)
	}
	for i, h := range good {
		select {
		case <-h.closed:
		case <-time.After(5 * time.Second):
			t.Fatalf("instance %d's connection was left open", i)
		}
	}
}

// TestAddInstancesPartialFailureKeepsTheRest: on a running controller a
// failed address is reported by index and the others serve; once the
// controller is closed every address fails.
func TestAddInstancesPartialFailureKeepsTheRest(t *testing.T) {
	t.Parallel()
	m := models.MustByName("NCF")
	ctrl, err := NewController(m.Name, &LeastBacklog{}, 1, m.Latency, []string{startServer(t, cloud.R5nLarge.Name, 1).Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	healthy := startServer(t, cloud.G4dnXlarge.Name, 1).Addr()
	types, errs := ctrl.AddInstances([]string{refusedAddr(t), healthy})
	if errs[0] == nil || errs[1] != nil || types[0] != "" || types[1] != cloud.G4dnXlarge.Name {
		t.Fatalf("AddInstances = %v, %v", types, errs)
	}
	if got := ctrl.InstanceCounts(); got[cloud.G4dnXlarge.Name] != 1 || got[cloud.R5nLarge.Name] != 1 {
		t.Fatalf("fleet %v", got)
	}
	if res := ctrl.SubmitWait(m.Name, 100); res.Err != nil {
		t.Fatal(res.Err)
	}

	// A closed controller registers nothing and hangs up on what it dialed.
	ctrl.Close()
	late := startHookedInstance(t, cloud.R5nLarge.Name, m.Name, nil)
	if _, errs := ctrl.AddInstances([]string{late.addr}); errs[0] == nil || !strings.Contains(errs[0].Error(), "closed") {
		t.Fatalf("AddInstances on a closed controller = %v", errs[0])
	}
	select {
	case <-late.closed:
	case <-time.After(5 * time.Second):
		t.Fatal("a closed controller left its dialed connection open")
	}
}

// TestAffinityRingBatchEqualsIncremental: a ring built from one
// AddInstances batch equals the ring built by one-at-a-time adds.
func TestAffinityRingBatchEqualsIncremental(t *testing.T) {
	t.Parallel()
	m := models.MustByName("NCF")
	var addrs []string
	for i := 0; i < 5; i++ {
		addrs = append(addrs, startHookedInstance(t, cloud.R5nLarge.Name, m.Name, nil).addr)
	}
	batch, err := NewController(m.Name, &LeastBacklog{}, 1, m.Latency, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer batch.Close()
	single, err := NewController(m.Name, &LeastBacklog{}, 1, m.Latency, addrs[:1])
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	for _, a := range addrs[1:] {
		if _, err := single.AddInstance(a); err != nil {
			t.Fatal(err)
		}
	}
	ring := func(c *Controller) []string {
		g := c.groups[m.Name]
		g.mu.Lock()
		defer g.mu.Unlock()
		out := make([]string, len(g.ring.entries))
		for i, e := range g.ring.entries {
			out[i] = e.ri.addr
			if i > 0 && g.ring.entries[i-1].hash > e.hash {
				t.Fatalf("ring entry %d is out of hash order", i)
			}
		}
		return out
	}
	b, s := ring(batch), ring(single)
	if len(b) != len(addrs)*affinityVNodes || !slices.Equal(b, s) {
		t.Fatalf("batch ring (%d entries) differs from the incremental ring (%d entries)", len(b), len(s))
	}
}

// TestHandshakeTimeout: a peer that accepts and never writes its banner
// fails registration after handshakeTimeout instead of hanging it, and
// the deadline is cleared once a handshake succeeds.
func TestHandshakeTimeout(t *testing.T) {
	// Not parallel: it lowers the package-wide timeout.
	defer func(d time.Duration) { handshakeTimeout = d }(handshakeTimeout)
	handshakeTimeout = 200 * time.Millisecond

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // held open and silent until the test ends
		}
	}()
	m := models.MustByName("NCF")
	start := time.Now()
	_, err = NewController(m.Name, &LeastBacklog{}, 1, m.Latency, []string{ln.Addr().String()})
	var ne net.Error
	if err == nil || !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("silent peer: NewController error %v, want a handshake timeout", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("the handshake timeout took %v", waited)
	}

	ctrl, err := NewController(m.Name, &LeastBacklog{}, 1, m.Latency, []string{startServer(t, cloud.R5nLarge.Name, 1).Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	if _, err := ctrl.AddInstance(ln.Addr().String()); err == nil || !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("silent peer: AddInstance error %v, want a handshake timeout", err)
	}
	// Past the deadline the registered connection must still serve.
	time.Sleep(2 * handshakeTimeout)
	if res := ctrl.SubmitWait(m.Name, 100); res.Err != nil {
		t.Fatalf("a registered instance stopped serving after the handshake deadline: %v", res.Err)
	}
}
