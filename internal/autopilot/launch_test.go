package autopilot

import (
	"fmt"
	"net"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"kairos/internal/cloud"
	"kairos/internal/core"
	"kairos/internal/models"
	"kairos/internal/server"
	"kairos/internal/workload"
)

// gateWait bounds how long a gated launch waits for its siblings. A
// serial launcher never opens the gate, so each of its launches waits
// this long and the recorded peak stays at 1.
const gateWait = 3 * time.Second

// gatedProvider wraps a Fleet to observe how an actuation launches. Each
// Launch waits until gate launches are in flight at once (or gateWait
// passes) and records the peak. Launches of the slow type then linger so
// they finish after their siblings. Launches that fail selects return an
// error instead of starting anything.
type gatedProvider struct {
	*Fleet
	slow string

	mu       sync.Mutex
	gate     int
	opened   chan struct{}
	inFlight int
	peak     int
	fail     func(model, typeName string) bool
	typeOf   map[string]string // launched addr -> type
}

func newGatedProvider(ms ...models.Model) *gatedProvider {
	p := &gatedProvider{Fleet: NewFleet(1, ms...), slow: cloud.G4dnXlarge.Name, typeOf: map[string]string{}}
	p.setGate(0)
	return p
}

// setGate makes the next launches wait for n siblings and resets the
// peak.
func (p *gatedProvider) setGate(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gate, p.peak = n, 0
	p.opened = make(chan struct{})
	if n <= 1 {
		close(p.opened)
	}
}

func (p *gatedProvider) peakInFlight() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.peak
}

func (p *gatedProvider) Launch(model, typeName string) (string, error) {
	p.mu.Lock()
	p.inFlight++
	p.peak = max(p.peak, p.inFlight)
	opened := p.opened
	select {
	case <-opened:
	default:
		if p.inFlight >= p.gate {
			close(opened)
		}
	}
	fail := p.fail != nil && p.fail(model, typeName)
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		p.inFlight--
		p.mu.Unlock()
	}()

	select {
	case <-opened:
	case <-time.After(gateWait):
	}
	if typeName == p.slow {
		time.Sleep(30 * time.Millisecond)
	}
	if fail {
		return "", fmt.Errorf("launch of %s/%s refused", model, typeName)
	}
	addr, err := p.Fleet.Launch(model, typeName)
	if err == nil {
		p.mu.Lock()
		p.typeOf[addr] = typeName
		p.mu.Unlock()
	}
	return addr, err
}

// instanceTypes lists the controller's instances' types in its order.
func instanceTypes(ctrl *server.Controller) []string {
	var out []string
	for _, in := range ctrl.Stats().Instances {
		out = append(out, in.TypeName)
	}
	return out
}

// TestDeployLaunchesConcurrentlyInPlanOrder: the initial rollout has
// every launch in flight at once, yet returns addresses in plan order
// even though the GPU launch, first in the plan, finishes last.
func TestDeployLaunchesConcurrentlyInPlanOrder(t *testing.T) {
	t.Parallel()
	m := ncf()
	p := newGatedProvider(m)
	defer p.Close()
	p.setGate(3)
	addrs, err := Deploy(p, cloud.DefaultPool(), plan(m, cloud.Config{1, 0, 2, 0}))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.peakInFlight(); got != 3 {
		t.Fatalf("peak launches in flight = %d, want all 3 at once", got)
	}
	var types []string
	for _, a := range addrs {
		types = append(types, p.typeOf[a])
	}
	want := []string{cloud.G4dnXlarge.Name, cloud.R5nLarge.Name, cloud.R5nLarge.Name}
	if strings.Join(types, ",") != strings.Join(want, ",") {
		t.Fatalf("Deploy addresses are %v, want plan order %v", types, want)
	}
	ctrl, err := server.NewController(m.Name, kairosPolicy(m), 1, m.Latency, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	if got := instanceTypes(ctrl); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("controller instance order %v, want %v", got, want)
	}
}

// TestDeployFailureMidPlanStopsEverything: a failed launch in the middle
// of the plan leaves nothing running, and Deploy reports the first
// failure in plan order, not the first to happen.
func TestDeployFailureMidPlanStopsEverything(t *testing.T) {
	t.Parallel()
	ncfM, wnd := ncf(), models.MustByName("MT-WND")
	p := newGatedProvider(ncfM, wnd)
	defer p.Close()
	// Plan order: MT-WND/r5n, NCF/g4dn, NCF/r5n, NCF/r5n. Every NCF
	// launch fails; the g4dn one, first in plan order, fails last.
	p.fail = func(model, _ string) bool { return model == ncfM.Name }
	p.setGate(4)
	fp := core.FleetPlan{ncfM.Name: cloud.Config{1, 0, 2, 0}, wnd.Name: cloud.Config{0, 0, 1, 0}}
	_, err := Deploy(p, cloud.DefaultPool(), fp)
	if err == nil || !strings.Contains(err.Error(), "NCF/"+cloud.G4dnXlarge.Name) {
		t.Fatalf("Deploy error = %v, want the NCF/g4dn failure", err)
	}
	if got := p.peakInFlight(); got != 4 {
		t.Fatalf("peak launches in flight = %d, want 4", got)
	}
	if got := p.Addrs(); len(got) != 0 {
		t.Fatalf("a failed Deploy left %v running", got)
	}
}

// TestActuateLaunchesConcurrentlyInPlanOrder: a replan's additions are
// in flight at once and registered with the controller in plan order;
// its drains then shrink the fleet back.
func TestActuateLaunchesConcurrentlyInPlanOrder(t *testing.T) {
	t.Parallel()
	m := ncf()
	p := newGatedProvider(m)
	ap := startAutopilotOn(t, p, cloud.Config{0, 0, 1, 0}, Options{
		Plan: singlePlan(m, func([]int) (cloud.Config, error) { return cloud.Config{0, 0, 1, 0}, nil }),
	})
	p.setGate(3)
	if err := ap.actuate(plan(m, cloud.Config{1, 0, 3, 0})); err != nil {
		t.Fatal(err)
	}
	if got := p.peakInFlight(); got != 3 {
		t.Fatalf("peak launches in flight = %d, want all 3 at once", got)
	}
	want := []string{cloud.R5nLarge.Name, cloud.G4dnXlarge.Name, cloud.R5nLarge.Name, cloud.R5nLarge.Name}
	if got := instanceTypes(ap.Controller()); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("controller instance order %v, want the survivor then plan order %v", got, want)
	}
	if res := ap.Controller().SubmitWait(m.Name, 100); res.Err != nil {
		t.Fatal(res.Err)
	}

	if err := ap.actuate(plan(m, cloud.Config{0, 0, 1, 0})); err != nil {
		t.Fatal(err)
	}
	if got := instanceTypes(ap.Controller()); len(got) != 1 || got[0] != cloud.R5nLarge.Name {
		t.Fatalf("after the drains the controller holds %v", got)
	}
	if n := p.Size(); n != 1 {
		t.Fatalf("after the drains the provider runs %d instances, want 1", n)
	}
}

// TestHealPartialLaunchFailureConverges: when one of a heal's launches
// fails, the heal registers the successes, reports the error, keeps the
// fault pending, and the next heal launches only what is still missing.
func TestHealPartialLaunchFailureConverges(t *testing.T) {
	t.Parallel()
	m := ncf()
	p := newGatedProvider(m)
	initial := cloud.Config{0, 0, 3, 0}
	ap := startAutopilotOn(t, p, initial, Options{
		Plan:       singlePlan(m, func([]int) (cloud.Config, error) { return initial.Clone(), nil }),
		References: map[string][]int{m.Name: samplesOf(workload.Uniform{Min: 10, Max: 60}, 200, 1)},
	})
	ap.Controller().SetEmptyHold(10 * time.Second)

	addrs := p.Addrs()
	for _, a := range addrs[:2] {
		if err := p.Kill(a); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, _, _, lost, _, _ := ap.FaultState(); lost == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("instance deaths never recorded as faults")
		}
		time.Sleep(2 * time.Millisecond)
	}

	refusals := 1
	p.mu.Lock()
	p.fail = func(string, string) bool {
		refusals--
		return refusals >= 0
	}
	p.mu.Unlock()
	p.setGate(2)
	if healed, err := ap.Heal(); healed || err == nil || !strings.Contains(err.Error(), "refused") {
		t.Fatalf("heal with a refused launch = (%v, %v)", healed, err)
	}
	if got := p.peakInFlight(); got != 2 {
		t.Fatalf("peak heal launches in flight = %d, want 2", got)
	}
	if got := ap.Controller().ModelInstanceCounts(m.Name)[cloud.R5nLarge.Name]; got != 2 {
		t.Fatalf("after a partial heal the controller has %d CPU instances, want 2", got)
	}
	if _, _, _, _, _, pending := ap.FaultState(); !pending {
		t.Fatal("a failed heal must leave the fault pending")
	}

	p.setGate(1)
	if healed, err := ap.Heal(); !healed || err != nil {
		t.Fatalf("second heal = (%v, %v)", healed, err)
	}
	if got := ap.Controller().ModelInstanceCounts(m.Name)[cloud.R5nLarge.Name]; got != 3 {
		t.Fatalf("healed fleet has %d CPU instances, want 3", got)
	}
	if n := p.Size(); n != 3 {
		t.Fatalf("provider runs %d instances, want 3", n)
	}
	if res := ap.Controller().SubmitWait(m.Name, 100); res.Err != nil {
		t.Fatal(res.Err)
	}
}

// refusingProvider is an in-process Fleet that, once armed, answers one
// launch with the address of a closed listener: a launch that succeeds
// but whose instance refuses the controller. It records every Stop.
type refusingProvider struct {
	*Fleet

	mu      sync.Mutex
	armed   bool
	refused string
	stopped []string
}

func (p *refusingProvider) Launch(model, typeName string) (string, error) {
	p.mu.Lock()
	if p.armed {
		p.armed = false
		p.mu.Unlock()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		ln.Close()
		p.mu.Lock()
		p.refused = ln.Addr().String()
		p.mu.Unlock()
		return ln.Addr().String(), nil
	}
	p.mu.Unlock()
	return p.Fleet.Launch(model, typeName)
}

func (p *refusingProvider) Stop(addr string) error {
	p.mu.Lock()
	p.stopped = append(p.stopped, addr)
	refused := addr == p.refused
	p.mu.Unlock()
	if refused {
		return nil
	}
	return p.Fleet.Stop(addr)
}

// TestActuateRegistersAroundARefusedInstance: when one launched
// instance refuses the controller's handshake, the batch's other
// instances are registered and serve, the refused one is stopped, and
// the error is reported.
func TestActuateRegistersAroundARefusedInstance(t *testing.T) {
	t.Parallel()
	m := ncf()
	p := &refusingProvider{Fleet: NewFleet(1, m)}
	ap := startAutopilotOn(t, p, cloud.Config{0, 0, 1, 0}, Options{
		Plan: singlePlan(m, func([]int) (cloud.Config, error) { return cloud.Config{0, 0, 1, 0}, nil }),
	})
	p.mu.Lock()
	p.armed = true
	p.mu.Unlock()
	err := ap.actuate(plan(m, cloud.Config{1, 0, 3, 0}))
	if err == nil || !strings.Contains(err.Error(), "dialing") {
		t.Fatalf("actuate with a refused instance = %v, want its dial error", err)
	}
	if got := ap.Controller().ModelInstanceCounts(m.Name); got[cloud.G4dnXlarge.Name]+got[cloud.R5nLarge.Name] != 3 {
		t.Fatalf("controller holds %v, want the survivor plus the 2 registrable launches", got)
	}
	p.mu.Lock()
	stopped, refused := slices.Clone(p.stopped), p.refused
	p.mu.Unlock()
	if len(stopped) != 1 || stopped[0] != refused {
		t.Fatalf("stopped %v, want only the refused %s", stopped, refused)
	}
	if n := p.Size(); n != 3 {
		t.Fatalf("provider runs %d instances, want 3", n)
	}
	if res := ap.Controller().SubmitWait(m.Name, 100); res.Err != nil {
		t.Fatal(res.Err)
	}
	// The next pass launches only what is still missing.
	if err := ap.actuate(plan(m, cloud.Config{1, 0, 3, 0})); err != nil {
		t.Fatal(err)
	}
	if got := ap.Controller().ModelInstanceCounts(m.Name); got[cloud.G4dnXlarge.Name] != 1 || got[cloud.R5nLarge.Name] != 3 {
		t.Fatalf("converged fleet %v, want 1 GPU + 3 CPU", got)
	}
}

// TestExecFleetConcurrentLaunches starts eight kairosd processes at once
// through the actuation launch path: every one gets its own address and
// announces the model and type asked of it.
func TestExecFleetConcurrentLaunches(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs kairosd")
	}
	t.Parallel()
	bin := filepath.Join(t.TempDir(), "kairosd")
	if runtime.GOOS == "windows" {
		bin += ".exe"
	}
	if out, err := exec.Command("go", "build", "-o", bin, "kairos/cmd/kairosd").CombinedOutput(); err != nil {
		t.Fatalf("building kairosd: %v\n%s", err, out)
	}
	f := NewExecFleet(bin, 1)
	defer f.Close()
	var specs []instanceSpec
	for _, model := range []string{"NCF", "MT-WND"} {
		for _, typeName := range []string{cloud.G4dnXlarge.Name, cloud.R5nLarge.Name} {
			specs = append(specs, instanceSpec{model, typeName}, instanceSpec{model, typeName})
		}
	}
	addrs, errs := launchAll(f, specs)
	seen := map[string]bool{}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("launch %d (%v): %v", i, specs[i], err)
		}
		if seen[addrs[i]] {
			t.Fatalf("address %s handed out twice", addrs[i])
		}
		seen[addrs[i]] = true
		if hello := readBanner(t, addrs[i]); hello.Model != specs[i].model || hello.TypeName != specs[i].typeName {
			t.Fatalf("launch %d at %s announces %s/%s, want %s/%s", i, addrs[i], hello.TypeName, hello.Model, specs[i].typeName, specs[i].model)
		}
	}
	if n := f.Size(); n != len(specs) {
		t.Fatalf("fleet tracks %d processes, want %d", n, len(specs))
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if n := f.Size(); n != 0 {
		t.Fatalf("%d processes left after Close", n)
	}
}

// readBanner dials a launched instance and reads its Hello banner. The
// connection closes without an ack, so the instance drops it.
func readBanner(t *testing.T, addr string) server.Hello {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var hello server.Hello
	if err := server.ReadFrame(conn, &hello); err != nil {
		t.Fatalf("reading the Hello banner from %s: %v", addr, err)
	}
	return hello
}
