package main

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"
)

// setupRounds is how many times a run deploys the stack; setup_s is the
// median and the last deployment is the one measured.
const setupRounds = 5

// Shares of the run's measured seconds given to each phase.
const (
	lightShare = 0.22
	refShare   = 0.12
	probeShare = 0.09
	maxProbes  = 7
	// probeQueries is the fewest arrivals a capacity probe expects: its
	// p99 decides the search, so it gets twice a fixed phase's floor.
	probeQueries = 2 * minQueries
	// ladderStep is the ratio between adjacent capacity-search rungs;
	// the search climbs searchStride rungs at a time to the knee, then
	// works down from it one rung at a time.
	ladderStep   = 1.05
	searchStride = 3
)

// tally counts one stack's queries by path and outcome, for the
// reconciliation against the program's own counters.
type tally struct {
	ok, refused, errReply, transport int64 // through the TCP ingress
	httpOK, httpErr                  int64 // through the HTTP ingress
	directOK, directErr              int64 // straight to the controller
}

func (t *tally) merge(o tally) {
	t.ok += o.ok
	t.refused += o.refused
	t.errReply += o.errReply
	t.transport += o.transport
	t.httpOK += o.httpOK
	t.httpErr += o.httpErr
	t.directOK += o.directOK
	t.directErr += o.directErr
}

// phaseOut is a finished phase with its cost and CPU: this process's and
// the kairosd fleet's.
type phaseOut struct {
	*phaseRun
	dollars           float64
	cpuMS, fleetCPUMS float64
}

// setup deploys the stack setupRounds times and keeps the last one.
func (b *bench) setup(policy string) (*stack, []float64, error) {
	var ds []float64
	for k := 0; ; k++ {
		s, d, err := buildStack(b.w, b.bin, policy, b.rec)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		b.attempted += s.warm
		ds = append(ds, d.Seconds())
		if k == setupRounds-1 {
			return s, ds, nil
		}
		s.close()
	}
}

// phase runs one schedule to completion on s and books its queries.
func (b *bench) phase(s *stack, t *tally, sched schedule, o runOpts) (*phaseOut, error) {
	d0, _ := s.fleet.cost()
	c0, f0 := cpuMS(s)
	r, err := b.runPhase(s, sched, o)
	if err == nil {
		err = drain(s)
	}
	d1, _ := s.fleet.cost()
	c1, f1 := cpuMS(s)
	out := &phaseOut{phaseRun: r, dollars: d1 - d0, cpuMS: c1 - c0, fleetCPUMS: f1 - f0}
	for i := 0; i < r.attempted; i++ {
		b.attempted++
		switch o := r.outcome[i]; {
		case r.direct[i] && o == outOK:
			t.directOK++
		case r.direct[i]:
			t.directErr++
			b.failed++
		case o == outOK:
			t.ok++
		case o == outRefused:
			t.refused++
			b.failed++
		case o == outErrReply:
			t.errReply++
			b.failed++
		default:
			t.transport++
			b.failed++
		}
	}
	return out, err
}

// warmupSec is how long the stack serves the reference rate before
// anything is measured, so the policy has learned its latency model and
// the connections and goroutine stacks have grown.
const warmupSec = 1.0

func (b *bench) warmup(s *stack, t *tally) error {
	_, err := b.phase(s, t, b.w.steady(b.seed, "warmup", b.w.ref, warmupSec), runOpts{})
	return err
}

// abortAt is the outstanding count past which a probe has plainly
// failed: eight times what Little's law allows at the latency limit, so
// a backlog a short stall leaves behind does not end a probe, but below
// the ingress admission bound, so a failing probe stops before the front
// door refuses queries.
func (b *bench) abortAt(rate float64) int64 {
	little := rate * b.w.limitMS / 1000
	// One model may carry most of the backlog.
	admit := float64(ingressQueue) * 3 / 4
	return int64(math.Min(admit, math.Max(64, 8*little)))
}

// capacity searches the ladder for the highest rate meeting the limit
// and reports the rate the generator actually sent at on that rung.
func (b *bench) capacity(s *stack, t *tally, o runOpts) (float64, []*phaseOut, error) {
	l := newLadder(b.w.light, b.w.searchFrom, 3*b.w.searchFrom, ladderStep)
	var runErr error
	var probes []*phaseOut
	byRung := map[int]*phaseOut{}
	var probed []map[string]any
	best, _ := searchCapacity(len(l.rates), l.start, searchStride, maxProbes, func(i int) verdict {
		if runErr != nil {
			return hard
		}
		// Each rung's arrivals are a pure function of the seed and the
		// rung, whichever rungs the search happens to visit.
		wallSec := math.Max(probeShare*b.seconds, probeQueries/(l.rates[i]/b.w.unit))
		sched := b.w.steady(b.seed, fmt.Sprintf("probe-%d", i), l.rates[i], wallSec)
		o.abortAt = b.abortAt(l.rates[i])
		p, err := b.phase(s, t, sched, o)
		if err != nil {
			runErr = err
			return hard
		}
		probes = append(probes, p)
		byRung[i] = p
		v := p.verdict(b.w)
		p99, pct := p.stats(b.w, 0, -1).p99()
		probed = append(probed, map[string]any{"rate": l.rates[i], "verdict": int(v), "p99_ms": finite(p99), "pct": pct, "aborted": p.aborted})
		return v
	})
	b.env["capacity_probes"] = probed
	if best < 0 {
		return 0, probes, runErr
	}
	return byRung[best].sentRate(b.w), probes, runErr
}

// withFixed raises a searched capacity to the fixed-rate phases that met
// the conditions: they are offered rates too.
func (b *bench) withFixed(capQPS float64, phases ...*phaseOut) float64 {
	for _, p := range phases {
		if p.verdict(b.w) == pass {
			capQPS = math.Max(capQPS, p.sentRate(b.w))
		}
	}
	return capQPS
}

// finite maps ±Inf and NaN to -1 for JSON.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return -1
	}
	return v
}

// runUntraced measures the end-to-end metrics.
func (b *bench) runUntraced() error {
	s, setups, err := b.setup("kairos")
	if err != nil {
		return err
	}
	defer s.close()
	b.put("setup_s", newDist(setups).p50(), "s")
	b.env["setup_s_each"] = setups
	var t tally
	var all []*phaseOut
	steal0 := stealTicks()
	if err := b.warmup(s, &t); err != nil {
		return err
	}
	if b.w.shift {
		err = b.measureShift(s, &t, runOpts{}, &all)
	} else {
		err = b.measureSteady(s, &t, runOpts{}, &all)
	}
	if err != nil {
		return err
	}
	b.env["steal_s"] = float64(stealTicks()-steal0) / 100
	b.envLag(all)
	b.planRef(s)
	return reconcile(s, t)
}

// measureSteady runs the light and reference rates and the capacity
// search, and reports their end-to-end metrics.
func (b *bench) measureSteady(s *stack, t *tally, o runOpts, all *[]*phaseOut) error {
	light, err := b.phase(s, t, b.w.steady(b.seed, "light", b.w.light, lightShare*b.seconds), o)
	if err != nil {
		return err
	}
	ref, err := b.phase(s, t, b.w.steady(b.seed, "ref", b.w.ref, refShare*b.seconds), o)
	if err != nil {
		return err
	}
	capQPS, probes, err := b.capacity(s, t, o)
	if err != nil {
		return err
	}
	capQPS = b.withFixed(capQPS, light, ref)
	*all = append(append(*all, light, ref), probes...)
	ls, rs := light.stats(b.w, 0, -1), ref.stats(b.w, 0, -1)
	b.putLatency(ls, rs)
	b.putCost(capQPS, s, []*phaseOut{light, ref})
	return nil
}

// measureShift runs the batch-mix inversion with the control loop on.
// The pre-shift half is the light figure, the post-shift half the
// reference figure.
func (b *bench) measureShift(s *stack, t *tally, o runOpts, all *[]*phaseOut) error {
	sched := b.w.shifted(b.seed, b.seconds)
	cut := 0
	for cut < len(sched.arrivals) && sched.arrivals[cut].dueNS < sched.shiftNS {
		cut++
	}
	s.ap.Start()
	p, err := b.phase(s, t, sched, o)
	if err != nil {
		return err
	}
	*all = append(*all, p)
	pre, post := p.stats(b.w, 0, cut), p.stats(b.w, cut, -1)
	b.putLatency(pre, post)
	// One rate is offered throughout, so the capacity figure is that
	// rate where a half met every condition: a guard that falls when the
	// servable rate does, not a search.
	capQPS := 0.0
	n := len(p.backlog)
	for h, ps := range []phaseStats{pre, post} {
		lo, hi := 0, n*cut/max(1, len(sched.arrivals))
		if h == 1 {
			lo, hi = hi, n
		}
		p99, _ := ps.p99()
		if p99 <= b.w.limitMS && !grew(p.backlog[lo:hi], sched.nominal*b.w.limitMS/1000) {
			capQPS = math.Max(capQPS, ps.offered)
		}
	}
	b.putCost(capQPS, s, []*phaseOut{p})
	b.shiftAtNS = p.startNS + sched.shiftNS
	b.shiftRun = p.phaseRun
	b.shiftCut = cut
	return nil
}

// putLatency reports the fixed-rate latency figures.
func (b *bench) putLatency(light, ref phaseStats) {
	p99l, pl := light.p99()
	p99, pr := ref.p99()
	b.put("p50_ms_light", light.lat.p50(), "ms")
	b.put("p99_ms_light", p99l, "ms")
	b.put("p50_ms", ref.lat.p50(), "ms")
	b.put("p99_ms", p99, "ms")
	b.put("slo_attainment", float64(ref.met)/float64(max(1, ref.attempted)), "share")
	b.env["light"] = map[string]any{"n": light.attempted, "p99_pct": pl, "offered_qps": light.offered, "failed": light.failed()}
	b.env["ref"] = map[string]any{"n": ref.attempted, "p99_pct": pr, "offered_qps": ref.offered, "failed": ref.failed()}
}

// putCost reports capacity, its price, and the cost and CPU per query
// over the fixed-rate phases, whose offered load does not depend on how
// the capacity search went.
func (b *bench) putCost(capQPS float64, s *stack, costed []*phaseOut) {
	_, perHour := s.fleet.cost()
	b.put("capacity_qps", capQPS, "queries/s")
	b.put("qps_per_usd_hr", capQPS/perHour, "qps/usd_per_hr")
	var dollars, met float64
	for _, p := range costed {
		dollars += p.dollars
		met += float64(p.stats(b.w, 0, -1).met)
	}
	b.put("usd_per_kq", dollars/math.Max(met, 1)*1000, "usd")
	var cpu, fleetCPU, ok float64
	for _, p := range costed {
		cpu += p.cpuMS
		fleetCPU += p.fleetCPUMS
		ok += float64(p.stats(b.w, 0, -1).ok)
	}
	b.put("cpu_ms_per_kq", (cpu+fleetCPU)/math.Max(ok, 1)*1000, "ms")
	b.env["cpu_ms_per_kq_fleet"] = fleetCPU / math.Max(ok, 1) * 1000
	b.env["fleet_usd_hr"] = perHour
}

// envLag records how late the generator ran over every phase.
func (b *bench) envLag(all []*phaseOut) {
	lag := newDist(lags(all))
	p99, pct := lag.tail(99)
	b.env["loadgen_lag_ms"] = map[string]any{"p50": lag.p50(), "p99": p99, "pct": pct, "n": lag.n()}
}

// lags is every sent query's due → send delay in wall ms.
func lags(all []*phaseOut) []float64 {
	var out []float64
	for _, p := range all {
		for i := 0; i < p.attempted; i++ {
			out = append(out, float64(p.sentNS[i]-p.startNS-p.sched.arrivals[i].dueNS)/1e6)
		}
	}
	return out
}

// reconcile checks, after the last drain, that every query the benchmark
// sent is accounted for by the controller and the ingress, and that the
// program's counters agree with the client's.
func reconcile(s *stack, t tally) error {
	if t.transport > 0 {
		return fmt.Errorf("reconcile: %d transport failures leave admission unknown", t.transport)
	}
	var last error
	for deadline := time.Now().Add(2 * time.Second); ; {
		last = reconcileOnce(s, t)
		if last == nil || time.Now().After(deadline) {
			return last
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func reconcileOnce(s *stack, t tally) error {
	st := s.ap.Controller().Stats()
	if err := checkSnapshot(st); err != nil {
		return err
	}
	var sub, done, fail, refused, queue, tcp, http int64
	for _, is := range s.ap.Ingress().Stats() {
		sub += is.Submitted
		done += is.Completed
		fail += is.Failed
		refused += is.Rejected + is.RateLimited
		queue += is.Queue
		tcp += is.TCP
		http += is.HTTP
	}
	warm := s.warm
	checks := []struct {
		what       string
		got, wants int64
	}{
		{"controller answered every submitted query", st.Completed + st.Failed, st.Submitted},
		{"ingress admitted = client sent − refused", sub, warm + t.ok + t.errReply + t.httpOK + t.httpErr},
		{"ingress TCP admitted", tcp, warm + t.ok + t.errReply},
		{"ingress HTTP admitted", http, t.httpOK + t.httpErr},
		{"ingress refusals = client refusals", refused, t.refused},
		{"ingress completed = client successes", done, warm + t.ok + t.httpOK},
		{"ingress failed = client error replies", fail, t.errReply + t.httpErr},
		{"ingress queues empty", queue, 0},
		{"controller submitted = ingress admitted + direct", st.Submitted, sub + t.directOK + t.directErr},
		{"controller completed = all successes", st.Completed, done + t.directOK},
	}
	for _, c := range checks {
		if c.got != c.wants {
			return fmt.Errorf("reconcile: %s: %d != %d", c.what, c.got, c.wants)
		}
	}
	return nil
}

// stealTicks reads the machine's CPU steal time (1/100 s), the time a
// virtual machine's CPUs waited on other guests; 0 where unknown.
func stealTicks() int64 {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	f := strings.Fields(strings.SplitN(string(raw), "\n", 2)[0])
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}
