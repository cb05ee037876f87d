package main

import (
	"fmt"
	"sync"
	"time"

	"kairos"
)

// ingressQueue is the ingress's per-model admission bound, the
// front door's default.
const ingressQueue = 1024

// stack is one deployed serving path: engine, autopilot (controller plus
// TCP and HTTP ingress) over an exec'd kairosd fleet, and the benchmark's
// ingress connections.
type stack struct {
	ap      *kairos.Autopilot
	fleet   *timedFleet
	clients []*kairos.IngressClient
	// warm counts the set-up queries sent through the ingress.
	warm int64
}

// buildStack deploys the workload's serving path and returns it with its
// set-up time: engine construction through the first query answered by
// the ingress. policy names the registry policy the controller runs.
func buildStack(w spec, bin, policy string, rec *recorder) (*stack, time.Duration, error) {
	t0 := time.Now()
	eng, err := kairos.New(
		kairos.WithPool(kairos.DefaultPool()),
		kairos.WithModels(w.models...),
		kairos.WithBudget(w.budget),
		kairos.WithPolicy(policy),
	)
	if err != nil {
		return nil, 0, err
	}
	fleet := newTimedFleet(kairos.NewExecFleet(bin, w.timeScale, w.models...), eng.Pool(), w.unit, rec)
	ap, err := eng.Autopilot(w.timeScale, kairos.AutopilotOptions{},
		kairos.WithProvider(fleet),
		kairos.WithIngress("127.0.0.1:0", "127.0.0.1:0"),
	)
	if err != nil {
		fleet.Close()
		return nil, 0, err
	}
	s := &stack{ap: ap, fleet: fleet}
	for i := 0; i < ingressConns; i++ {
		c, err := kairos.DialIngress(ap.Ingress().TCPAddr())
		if err != nil {
			s.close()
			return nil, 0, fmt.Errorf("dial ingress: %w", err)
		}
		s.clients = append(s.clients, c)
	}
	// The set-up ends when the front door answers: one small query per
	// connection, all of which must succeed.
	for _, c := range s.clients {
		s.warm++
		rep, err := c.Submit(w.models[0], 1)
		if err != nil || rep.Err != "" {
			s.close()
			return nil, 0, fmt.Errorf("first query: %v %s", err, rep.Err)
		}
	}
	return s, time.Since(t0), nil
}

func (s *stack) close() {
	for _, c := range s.clients {
		c.Close()
	}
	s.ap.Close()
}

// timedFleet is the exec provider as the benchmark sees it: every launch
// and stop is timed and the live fleet's price integrated over time, so
// fleet dollars are the instances actually running. The embedded
// ExecFleet forwards everything else the autopilot probes for —
// TimeScale, Notices, Preempt — unchanged.
type timedFleet struct {
	*kairos.ExecFleet
	prices map[string]float64
	unit   float64
	rec    *recorder

	mu       sync.Mutex
	live     map[string]float64 // addr → $/hr
	rate     float64            // $/hr of the live fleet
	dollars  float64            // accumulated up to since
	since    time.Time
	launchMS []float64
	launches int
	stops    int
}

func newTimedFleet(f *kairos.ExecFleet, pool kairos.Pool, unit float64, rec *recorder) *timedFleet {
	prices := make(map[string]float64, len(pool))
	for _, t := range pool {
		prices[t.Name] = t.PricePerHour
	}
	return &timedFleet{ExecFleet: f, prices: prices, unit: unit, rec: rec,
		live: map[string]float64{}, since: time.Now()}
}

// accrueLocked books the live fleet's cost up to now. Fleet time is in
// the workload's reported unit: model hours where latencies are model
// time, wall hours where they are wall time.
func (f *timedFleet) accrueLocked(now time.Time) {
	f.dollars += f.rate * now.Sub(f.since).Hours() / f.unit
	f.since = now
}

// Launch implements kairos.Provider.
func (f *timedFleet) Launch(model, typeName string) (string, error) {
	t0 := time.Now()
	addr, err := f.ExecFleet.Launch(model, typeName)
	t1 := time.Now()
	f.rec.add("provider.launch", 0, t0, t1)
	if err != nil {
		return addr, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.accrueLocked(t1)
	f.live[addr] = f.prices[typeName]
	f.rate += f.prices[typeName]
	f.launchMS = append(f.launchMS, float64(t1.Sub(t0))/1e6)
	f.launches++
	return addr, nil
}

// Stop implements kairos.Provider.
func (f *timedFleet) Stop(addr string) error {
	t0 := time.Now()
	err := f.ExecFleet.Stop(addr)
	f.rec.add("provider.stop", 0, t0, time.Now())
	f.forget(addr)
	return err
}

// Reap forwards the provider's dead-instance release.
func (f *timedFleet) Reap(addr string) error {
	err := f.ExecFleet.Reap(addr)
	f.forget(addr)
	return err
}

func (f *timedFleet) forget(addr string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	price, ok := f.live[addr]
	if !ok {
		return
	}
	f.accrueLocked(time.Now())
	delete(f.live, addr)
	f.rate -= price
	f.stops++
}

// cost returns the fleet dollars accrued so far and the live $/hr.
func (f *timedFleet) cost() (dollars, perHour float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.accrueLocked(time.Now())
	return f.dollars, f.rate
}

// pids lists the live kairosd processes.
func (f *timedFleet) pids() []int {
	var out []int
	for _, a := range f.Addrs() {
		if p := f.Pid(a); p > 0 {
			out = append(out, p)
		}
	}
	return out
}

// timedPolicy wraps a registry policy and records every matching round:
// its duration, the queries and instances offered, and the placements
// made. It forwards Observe so the wrapped policy keeps learning exactly
// as it would unwrapped.
type timedPolicy struct {
	inner kairos.Distributor
	obs   kairos.Observer
	model kairos.Model
	gpu   string
	rec   *recorder
}

// Name implements kairos.Distributor.
func (p *timedPolicy) Name() string { return p.inner.Name() }

// Assign implements kairos.Distributor.
func (p *timedPolicy) Assign(nowMS float64, waiting []kairos.QueryView, instances []kairos.InstanceView) []kairos.Assignment {
	t0 := time.Now()
	out := p.inner.Assign(nowMS, waiting, instances)
	t1 := time.Now()
	r := round{waiting: len(waiting), instances: len(instances), assigned: len(out)}
	for _, a := range out {
		typ := instances[a.Instance].TypeName
		if typ == p.gpu {
			r.gpu++
		}
		if lat := p.model.Latency(typ, waiting[a.Query].Batch); lat <= p.model.QoS && lat >= 0.95*p.model.QoS {
			r.nearCutoff++
		}
	}
	p.rec.addRound(r, t0, t1)
	return out
}

// Observe implements kairos.Observer by forwarding to the wrapped policy.
func (p *timedPolicy) Observe(instance string, batch int, serviceMS float64) {
	if p.obs != nil {
		p.obs.Observe(instance, batch, serviceMS)
	}
}

// timedPolicyName is the registry name of the timed "kairos" policy.
const timedPolicyName = "kairos+timed"

// registerTimedPolicy adds the timed wrapper of the registry's "kairos"
// policy, recording into rec.
func registerTimedPolicy(rec *recorder) error {
	return kairos.RegisterPolicy(timedPolicyName, func(ctx kairos.PolicyContext) (kairos.Distributor, error) {
		inner, err := kairos.NewPolicy("kairos", ctx)
		if err != nil {
			return nil, err
		}
		obs, _ := inner.(kairos.Observer)
		return &timedPolicy{inner: inner, obs: obs, model: ctx.Model, gpu: ctx.Pool.Base().Name, rec: rec}, nil
	})
}
