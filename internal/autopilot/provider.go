package autopilot

import (
	"fmt"
	"sync"
	"time"

	"kairos/internal/cloud"
	"kairos/internal/core"
)

// Provider is the actuation driver: how instance servers come to exist
// and go away. The actuator (and the facade's initial deploy) work
// exclusively against this interface, so the same control loop manages
// in-process loopback servers (Fleet), exec'd kairosd processes
// (ExecFleet), and eventually SSH- or cloud-provisioned hosts — the
// pluggable "how instances are launched" edge of the system (INFaaS /
// KubeAI style).
//
// The contract with the actuator: Launch returns only once the instance
// is accepting controller connections and announcing the right model and
// type in its Hello banner, and Stop is called only after the controller
// has drained and disconnected the instance, so a provider never has to
// worry about in-flight queries. An actuation launches all of its new
// instances at once and stops all of its drained ones at once, so Launch
// and Stop may be called concurrently, with each other and with
// themselves: a provider must lock whatever state they share.
type Provider interface {
	// Launch starts one instance of typeName hosting model and returns
	// its dialable address once it is ready.
	Launch(model, typeName string) (string, error)
	// Stop tears down the instance at addr.
	Stop(addr string) error
	// Addrs lists the running instances' addresses in unspecified order.
	Addrs() []string
	// Close stops every running instance.
	Close() error
}

// Reaper is an optional Provider extension for fault handling: Reap
// releases whatever the provider still holds for an instance that died on
// its own — the exec provider reaps the OS process, the in-process fleet
// forgets the server — without the drained-first contract Stop assumes.
// Reaping an address the provider no longer tracks is not an error.
type Reaper interface {
	Reap(addr string) error
}

// reap releases a dead instance through the provider's Reaper extension
// when it has one, falling back to a best-effort Stop.
func reap(p Provider, addr string) error {
	if r, ok := p.(Reaper); ok {
		return r.Reap(addr)
	}
	return p.Stop(addr)
}

// Preemption is a spot-market revocation notice: the capacity market
// reclaims the instance at Addr no later than Deadline. Between notice
// and deadline the instance serves normally — the window exists so a
// control plane can drain it ahead of death.
type Preemption struct {
	// Addr is the doomed instance's dialable address.
	Addr string
	// Deadline is when the instance dies regardless of drain progress.
	Deadline time.Time
}

// Noticer is an optional Provider extension for revocable capacity:
// Notices delivers preemption notices for instances the market is about
// to reclaim. The channel is never closed and may be nil when the
// provider cannot deliver notices. The control loop treats each notice
// as a first-class trigger distinct from death: drain the doomed
// instance immediately, then replan around the hole before the deadline.
type Noticer interface {
	Notices() <-chan Preemption
}

// Preempter is an optional Provider extension for injecting
// revocations: Preempt delivers a notice for the instance at addr and
// schedules its hard kill at the end of the notice window — the exact
// sequence a cloud spot market performs. It returns the kill deadline.
// An instance stopped (drained) before the deadline is simply gone when
// the kill fires. Tests and the soak harness script preemptions through
// this.
type Preempter interface {
	Preempt(addr string, notice time.Duration) (time.Time, error)
}

// Deploy launches plan[model][i] instances of pool[i] for every model on
// the provider and returns all started addresses in plan order: models
// by name, then pool order. The launches run concurrently. On any launch
// failure it stops what it started and returns the first error in plan
// order.
func Deploy(p Provider, pool cloud.Pool, plan core.FleetPlan) ([]string, error) {
	var want []instanceSpec
	for _, model := range plan.Models() {
		cfg := plan[model]
		if len(cfg) != len(pool) {
			return nil, fmt.Errorf("autopilot: config %v for %s does not match pool of %d types", cfg, model, len(pool))
		}
		for i, n := range cfg {
			for k := 0; k < n; k++ {
				want = append(want, instanceSpec{model, pool[i].Name})
			}
		}
	}
	addrs, errs := launchAll(p, want)
	if err := firstErr(errs); err != nil {
		for i, a := range addrs {
			if errs[i] == nil {
				p.Stop(a)
			}
		}
		return nil, err
	}
	return addrs, nil
}

// instanceSpec is one instance an actuation wants: a type serving a
// model.
type instanceSpec struct{ model, typeName string }

// launchAll is the one launch path of every actuation — the initial
// rollout, replans and heals. It calls Provider.Launch for every spec at
// once and returns the addresses and errors in spec order, so callers
// register instances in plan order however the launches finish.
// Start-ups are independent, so a fleet comes up in about the time of
// its slowest launch rather than the sum of all of them.
func launchAll(p Provider, specs []instanceSpec) ([]string, []error) {
	addrs := make([]string, len(specs))
	errs := fanOut(len(specs), func(i int) (err error) {
		addrs[i], err = p.Launch(specs[i].model, specs[i].typeName)
		return err
	})
	return addrs, errs
}

// fanOut runs fn(0), ..., fn(n-1) concurrently, one goroutine each, and
// returns their errors by index once all have returned.
func fanOut(n int, fn func(i int) error) []error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	return errs
}

// firstErr returns the first non-nil error in errs.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
