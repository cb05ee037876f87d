package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"kairos"
	"kairos/internal/server"
)

// round is one matching round seen by the timed policy.
type round struct {
	waiting, instances, assigned, gpu, nearCutoff int
	startNS, durNS                                int64
}

// recorder keeps the traced run's spans and matching rounds in memory
// until the run ends. A nil recorder records nothing.
type recorder struct {
	epoch  time.Time
	mu     sync.Mutex
	spans  []span
	rounds []round
}

func newRecorder(epoch time.Time) *recorder { return &recorder{epoch: epoch} }

// add records a root span.
func (r *recorder) add(name string, seq int64, t0, t1 time.Time) {
	if r == nil {
		return
	}
	r.addSpans(span{Name: name, Seq: seq, StartNS: t0.Sub(r.epoch).Nanoseconds(), EndNS: t1.Sub(r.epoch).Nanoseconds()})
}

func (r *recorder) addSpans(ss ...span) {
	r.mu.Lock()
	r.spans = append(r.spans, ss...)
	r.mu.Unlock()
}

func (r *recorder) addRound(rd round, t0, t1 time.Time) {
	if r == nil {
		return
	}
	rd.startNS, rd.durNS = t0.Sub(r.epoch).Nanoseconds(), t1.Sub(t0).Nanoseconds()
	r.mu.Lock()
	r.rounds = append(r.rounds, rd)
	r.mu.Unlock()
}

// cpuMS is the CPU time so far of this process with its reaped
// children, and of the live kairosd fleet, in ms.
func cpuMS(s *stack) (self, fleet float64) {
	var own, kids syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &own)
	syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	ms := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e3 + float64(t.Usec)/1e3 }
	self = ms(own.Utime) + ms(own.Stime) + ms(kids.Utime) + ms(kids.Stime)
	for _, pid := range s.fleet.pids() {
		fleet += procCPUMS(pid)
	}
	return self, fleet
}

// procCPUMS reads a live process's user+system time from /proc.
func procCPUMS(pid int) float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesized command name; utime and stime are
	// the 14th and 15th fields overall, in clock ticks of 10 ms.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) * 10
}

// planRef records what the planner and the simulator predict for the
// fleet actually deployed, in model queries/s, summed over models. Each
// model is evaluated by a single-model engine planning from the same
// sample the shared-budget engine drew for it.
func (b *bench) planRef(s *stack) (predicted, allowable float64) {
	plan := s.ap.Current()
	for i, m := range b.w.models {
		e, err := kairos.New(kairos.WithPool(kairos.DefaultPool()), kairos.WithModelName(m),
			kairos.WithBudget(b.w.budget), kairos.WithSeed(42+int64(i)))
		if err != nil {
			continue
		}
		cfg := plan.Config(m)
		ub, _ := e.UpperBound(cfg)
		al, _ := e.AllowableThroughput(cfg)
		predicted += ub
		allowable += al
	}
	b.env["plan"] = plan.String()
	b.env["planner_predicted_qps"] = predicted
	b.env["sim_allowable_qps"] = allowable
	return predicted, allowable
}

// runTraced measures the per-layer metrics. It first offers the
// reference rate to an unwrapped stack, the baseline for the tracing
// overhead, then deploys the stack with the timed policy and runs the
// workload's phases with every layer timed from outside.
func (b *bench) runTraced(spansPath string) error {
	if err := registerTimedPolicy(b.rec); err != nil {
		return err
	}
	base, _, err := buildStack(b.w, b.bin, "kairos", nil)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	b.attempted += base.warm
	var bt tally
	err = b.warmup(base, &bt)
	var bp *phaseOut
	if err == nil {
		bp, err = b.phase(base, &bt, b.w.steady(b.seed, "ref", b.w.ref, refShare*b.seconds), runOpts{})
	}
	if err == nil {
		err = reconcile(base, bt)
	}
	base.close()
	if err != nil {
		return err
	}
	baseP50 := bp.stats(b.w, 0, -1).lat.p50()

	t0 := time.Now()
	s, _, err := buildStack(b.w, b.bin, timedPolicyName, b.rec)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	b.rec.add("setup", 0, t0, time.Now())
	b.attempted += s.warm
	defer s.close()

	var t tally
	if err := b.warmup(s, &t); err != nil {
		return err
	}
	o := runOpts{directEvery: 8}
	var all []*phaseOut
	var ref *phaseOut
	refLo := 0
	var util, capQPS float64
	var httpLat []float64
	if b.w.shift {
		st0 := s.ap.Controller().Stats()
		w0 := time.Now()
		if err := b.measureShift(s, &t, o, &all); err != nil {
			return err
		}
		util = utilization(st0, s.ap.Controller().Stats(), time.Since(w0), b.w.timeScale)
		ref, refLo = all[0], b.shiftCut
	} else {
		// The HTTP probe runs closed loop beside the light phase's TCP load.
		stop := make(chan struct{})
		probeDone := make(chan error, 1)
		var ht tally
		var hAttempted, hFailed int64
		go func() {
			var err error
			httpLat, hAttempted, hFailed, err = b.httpProbe(s, &ht, stop)
			probeDone <- err
		}()
		light, err := b.phase(s, &t, b.w.steady(b.seed, "light", b.w.light, lightShare*b.seconds), o)
		close(stop)
		if perr := <-probeDone; err == nil {
			err = perr
		}
		t.merge(ht)
		b.attempted += hAttempted
		b.failed += hFailed
		if err != nil {
			return err
		}
		st0 := s.ap.Controller().Stats()
		w0 := time.Now()
		ref, err = b.phase(s, &t, b.w.steady(b.seed, "ref", b.w.ref, refShare*b.seconds), o)
		if err != nil {
			return err
		}
		util = utilization(st0, s.ap.Controller().Stats(), time.Since(w0), b.w.timeScale)
		var probes []*phaseOut
		if capQPS, probes, err = b.capacity(s, &t, o); err != nil {
			return err
		}
		capQPS = b.withFixed(capQPS, light, ref)
		all = append(append(all, light, ref), probes...)
	}
	if err := reconcile(s, t); err != nil {
		return err
	}
	return b.layerMetrics(s, t, all, ref, refLo, capQPS, util, httpLat, baseP50, spansPath)
}

// utilization is Σ busy model time over instances × elapsed model time.
func utilization(a, z kairos.ControllerStats, wall time.Duration, timeScale float64) float64 {
	busy := 0.0
	for _, in := range z.Instances {
		busy += in.BusyMS
	}
	for _, in := range a.Instances {
		busy -= in.BusyMS
	}
	n := math.Max(1, float64(len(z.Instances)))
	return busy / (n * float64(wall.Milliseconds()) / timeScale)
}

// layerMetrics derives every per-layer metric from the traced run. ref
// is the reference-rate phase, from arrival refLo on; capQPS is the
// traced run's own capacity (0 where it searched none).
func (b *bench) layerMetrics(s *stack, t tally, all []*phaseOut, ref *phaseOut, refLo int,
	capQPS, util float64, httpLat []float64, baseP50 float64, spansPath string) error {
	w := b.w
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	// The traced run prints per-layer metrics only.
	b.metrics = map[string]metric{}
	refHi := ref.attempted

	// Generator lag over every phase.
	lag := newDist(lags(all))
	lag99, _ := lag.tail(99)
	b.put("loadgen.lag_ms.p50", lag.p50(), "ms")
	b.put("loadgen.lag_ms.p99", lag99, "ms")

	// Submit spans at the reference rate, split by path.
	var ing, ctl, e2e, svc []float64
	for i := refLo; i < refHi; i++ {
		if ref.outcome[i] != outOK {
			continue
		}
		d := ref.doneNS[i] - ref.sentNS[i]
		if ref.direct[i] {
			ctl = append(ctl, us(d))
			svc = append(svc, ref.serviceMS[i]*w.timeScale*1e3)
		} else {
			ing = append(ing, us(d))
			e2e = append(e2e, us(ref.doneNS[i]-ref.startNS-ref.sched.arrivals[i].dueNS))
		}
	}
	ingD, ctlD, e2eD := newDist(ing), newDist(ctl), newDist(e2e)
	ing99, _ := ingD.tail(99)
	ctl99, _ := ctlD.tail(99)
	b.put("ingress.submit_us.p50", ingD.p50(), "us")
	b.put("ingress.submit_us.p99", ing99, "us")
	b.put("controller.submit_us.p50", ctlD.p50(), "us")
	b.put("controller.submit_us.p99", ctl99, "us")
	b.put("ingress.self_us.p50", ingD.p50()-ctlD.p50(), "us")

	var attempted int64
	for _, p := range all {
		attempted += int64(p.attempted)
	}
	b.put("ingress.refused_share", float64(t.refused)/math.Max(1, float64(attempted)), "share")
	failedShare := float64(t.refused+t.errReply+t.transport+t.httpErr+t.directErr) / math.Max(1, float64(attempted))
	b.put("failed_share", failedShare, "share")
	httpD := newDist(httpLat)
	http99, _ := httpD.tail(99)
	b.put("ingress.http_submit_us.p50", zeroNaN(httpD.p50()), "us")
	b.put("ingress.http_submit_us.p99", zeroNaN(http99), "us")

	var waits []float64
	for _, v := range ref.waiting {
		waits = append(waits, float64(v))
	}
	b.put("controller.waiting.mean", mean(waits), "queries")
	b.put("controller.waiting.max", zeroNaN(newDist(waits).max()), "queries")
	st := s.ap.Controller().Stats()
	b.put("controller.failed_share", float64(st.Failed)/math.Max(1, float64(st.Submitted)), "share")

	// Matching rounds over the whole traced stack.
	b.rec.mu.Lock()
	rounds := append([]round(nil), b.rec.rounds...)
	b.rec.mu.Unlock()
	var assignUS, perWait, perInst []float64
	var offered, assigned, gpu, near, empty int
	for _, r := range rounds {
		assignUS = append(assignUS, us(r.durNS))
		perWait = append(perWait, float64(r.waiting))
		perInst = append(perInst, float64(r.instances))
		offered += r.waiting
		assigned += r.assigned
		gpu += r.gpu
		near += r.nearCutoff
		if r.assigned == 0 {
			empty++
		}
	}
	assignD := newDist(assignUS)
	assign99, _ := assignD.tail(99)
	b.put("distributor.assign_us.p50", zeroNaN(assignD.p50()), "us")
	b.put("distributor.assign_us.p99", zeroNaN(assign99), "us")
	b.put("distributor.rounds_per_kq", float64(len(rounds))/math.Max(1, float64(st.Completed))*1000, "rounds")
	b.put("distributor.waiting_per_round.mean", mean(perWait), "queries")
	b.put("distributor.instances_per_round.mean", mean(perInst), "instances")
	b.put("distributor.yield", float64(assigned)/math.Max(1, float64(offered)), "share")
	b.put("distributor.empty_round_share", float64(empty)/math.Max(1, float64(len(rounds))), "share")
	b.put("distributor.gpu_share", float64(gpu)/math.Max(1, float64(assigned)), "share")
	b.put("distributor.near_cutoff_share", float64(near)/math.Max(1, float64(assigned)), "share")

	// The instance in isolation: round trip with service compressed away,
	// and emulation overshoot at the workload's own time scale.
	rtt, _, err := b.instanceProbe(1e-6, 1, 2000)
	if err != nil {
		return err
	}
	_, over, err := b.instanceProbe(w.timeScale, 4, 250)
	if err != nil {
		return err
	}
	rttD, overD := newDist(rtt), newDist(over)
	rtt99, _ := rttD.tail(99)
	over99, _ := overD.tail(99)
	b.put("instance.rtt_us.p50", rttD.p50(), "us")
	b.put("instance.rtt_us.p99", rtt99, "us")
	b.put("instance.overshoot_ms.p50", overD.p50(), "ms")
	b.put("instance.overshoot_ms.p99", over99, "ms")
	b.put("fleet.utilization", util, "share")

	// The planner on the deployed plan, against the simulator.
	var planMS []float64
	for k := 0; k < 3; k++ {
		e, err := kairos.New(kairos.WithPool(kairos.DefaultPool()), kairos.WithModels(w.models...), kairos.WithBudget(w.budget))
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := e.PlanFleet(); err != nil {
			return err
		}
		t1 := time.Now()
		b.rec.add("planner.plan", 0, t0, t1)
		planMS = append(planMS, float64(t1.Sub(t0))/1e6)
	}
	b.put("planner.plan_ms", newDist(planMS).p50(), "ms")
	predicted, allowable := b.planRef(s)
	b.put("planner.predicted_qps", predicted, "queries/s")
	b.put("sim.allowable_qps", allowable, "queries/s")
	vsSim := 0.0
	if w.unit == w.timeScale && allowable > 0 {
		// Only where capacity is in model time is it comparable.
		vsSim = capQPS / allowable
	}
	b.put("capacity_vs_sim", vsSim, "ratio")

	// Provider actuation over the traced stack's lifetime.
	s.fleet.mu.Lock()
	launch := newDist(s.fleet.launchMS)
	launches, stops := s.fleet.launches, s.fleet.stops
	s.fleet.mu.Unlock()
	b.put("provider.launch_ms.p50", zeroNaN(launch.p50()), "ms")
	b.put("provider.launch_ms.max", zeroNaN(launch.max()), "ms")
	b.put("provider.launches", float64(launches), "count")
	b.put("provider.stops", float64(stops), "count")

	b.autopilotMetrics(s)

	// Reconciliation at the reference rate, in wall µs: generator lag (the
	// self time of loadgen.send, whose child is the submit span), ingress
	// self, controller self, instance round trip and requested service
	// should add back up to the end-to-end median.
	querySpans := b.querySpans(ref, refLo, refHi)
	lagRef := newDist(selfTimes(querySpans, "loadgen.send")).p50() / 1e3
	svcP50 := newDist(svc).p50()
	ctlSelf := ctlD.p50() - rttD.p50() - svcP50
	parts := lagRef + (ingD.p50() - ctlD.p50()) + ctlSelf + rttD.p50() + svcP50
	residual := 0.0
	if !w.shift {
		residual = (e2eD.p50() - parts) / 1e3 / w.unit
	}
	b.put("trace.residual_ms", zeroNaN(residual), "ms")
	b.env["reconciliation_us"] = map[string]float64{
		"e2e_p50": e2eD.p50(), "lag_p50": lagRef, "ingress_self": ingD.p50() - ctlD.p50(),
		"controller_self": ctlSelf, "instance_rtt_p50": rttD.p50(), "service_p50": svcP50,
	}
	tracedLo, tracedHi := refLo, refHi
	if w.shift {
		// The baseline ran the pre-shift mix.
		tracedLo, tracedHi = 0, refLo
	}
	traced := newDist(filterE2E(ref, tracedLo, tracedHi, w)).p50()
	b.put("trace.overhead_ms", traced-baseP50, "ms")
	b.envLag(all)

	b.rec.addSpans(querySpans...)
	b.addJournalSpans(s)
	b.rec.mu.Lock()
	spans := append([]span(nil), b.rec.spans...)
	b.rec.mu.Unlock()
	b.put("trace.spans", float64(len(spans)), "count")
	return b.writeSpans(spansPath, spans, rounds, ref)
}

func zeroNaN(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// filterE2E is the ingress-path latencies (reported ms) of a phase slice.
func filterE2E(p *phaseOut, lo, hi int, w spec) []float64 {
	var out []float64
	for i := lo; i < hi; i++ {
		if p.direct[i] || p.outcome[i] != outOK {
			continue
		}
		out = append(out, float64(p.doneNS[i]-p.startNS-p.sched.arrivals[i].dueNS)/1e6/w.unit)
	}
	return out
}

// autopilotMetrics reports the control loop's replans and, on the shift
// workload, how long it took to react and whether the tail recovered.
// Times not observed before the run ended are reported as the time
// remaining (censored).
func (b *bench) autopilotMetrics(s *stack) {
	decisions := s.ap.Decisions()
	var replanMS []float64
	detect := -1.0
	for _, d := range decisions {
		if d.PlanMS > 0 {
			replanMS = append(replanMS, d.PlanMS)
		}
		at := d.At.Sub(b.epoch).Nanoseconds()
		if b.w.shift && d.Kind == "replan" && detect < 0 && at >= b.shiftAtNS {
			detect = float64(at-b.shiftAtNS) / 1e9
		}
	}
	b.put("autopilot.replans", float64(s.ap.Replans()), "count")
	b.put("planner.replan_ms.p50", zeroNaN(newDist(replanMS).p50()), "ms")
	if !b.w.shift {
		b.put("autopilot.detect_s", 0, "s")
		b.put("autopilot.recovery_s", 0, "s")
		return
	}
	p := b.shiftRun
	endNS := p.startNS + p.sched.durNS
	censored := float64(endNS-b.shiftAtNS) / 1e9
	if detect < 0 {
		detect = censored
	}
	b.put("autopilot.detect_s", detect, "s")
	b.put("autopilot.recovery_s", b.recovery(p, b.shiftCut, censored), "s")
	b.env["decisions"] = len(decisions)
	b.env["final_plan"] = s.ap.Current().String()
}

// recoveryWindow is the sliding window, in queries, over which the
// recovery check takes p99: enough for ten samples beyond it.
const recoveryWindow = 1000

// recovery is the time from the shift until the windowed p99 went back
// under the limit and stayed there to the end of the run.
func (b *bench) recovery(p *phaseRun, cut int, censored float64) float64 {
	var lats []float64
	for i := cut; i < p.attempted; i++ {
		l := math.Inf(1)
		if p.outcome[i] == outOK {
			l = float64(p.doneNS[i]-p.startNS-p.sched.arrivals[i].dueNS) / 1e6 / b.w.unit
		}
		lats = append(lats, l)
	}
	if len(lats) < recoveryWindow {
		return censored
	}
	recoveredAt := -1
	for end := recoveryWindow; end <= len(lats); end += recoveryWindow / 10 {
		p99, _ := newDist(lats[end-recoveryWindow : end]).tail(99)
		switch {
		case p99 > b.w.limitMS:
			recoveredAt = -1
		case recoveredAt < 0:
			recoveredAt = end - recoveryWindow
		}
	}
	if recoveredAt < 0 {
		return censored
	}
	if recoveredAt == 0 {
		return 0
	}
	due := p.startNS + p.sched.arrivals[cut+recoveredAt].dueNS
	return float64(due-b.shiftAtNS) / 1e9
}

// querySpans turns a phase's per-query records into spans: a
// loadgen.send root from due time to reply, and its child submit span
// from send to reply on the path the query took.
func (b *bench) querySpans(p *phaseOut, lo, hi int) []span {
	var out []span
	for i := lo; i < hi; i++ {
		if p.outcome[i] == outNone {
			continue
		}
		seq := int64(i)
		due := p.startNS + p.sched.arrivals[i].dueNS
		child := "ingress.submit"
		if p.direct[i] {
			child = "controller.submit"
		}
		out = append(out,
			span{Name: "loadgen.send", Seq: seq, StartNS: due, EndNS: p.doneNS[i]},
			span{Name: child, Seq: seq, Parent: "loadgen.send", StartNS: p.sentNS[i], EndNS: p.doneNS[i]})
	}
	return out
}

// addJournalSpans turns the autopilot's decision journal into spans
// ending at each decision, lasting its planning plus actuation time.
func (b *bench) addJournalSpans(s *stack) {
	for _, d := range s.ap.Decisions() {
		end := d.At.Sub(b.epoch).Nanoseconds()
		dur := int64((d.PlanMS + d.ActuationMS) * 1e6)
		b.rec.addSpans(span{Name: "autopilot." + d.Kind, Seq: d.Seq, StartNS: end - dur, EndNS: end})
	}
}

// writeSpans writes the recorded spans — plus the matching rounds that
// overlapped the reference phase — as one JSON document.
func (b *bench) writeSpans(path string, spans []span, rounds []round, ref *phaseOut) error {
	if path == "" {
		return nil
	}
	lo := ref.startNS
	hi := lo + ref.sched.durNS
	for i, r := range rounds {
		if r.startNS >= lo && r.startNS < hi {
			spans = append(spans, span{Name: "distributor.assign", Seq: int64(i), StartNS: r.startNS, EndNS: r.startNS + r.durNS})
		}
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].StartNS < spans[j].StartNS })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := json.NewEncoder(bw).Encode(map[string]any{"env": b.env, "spans": spans}); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// instanceProbe drives conc dedicated kairosd processes, outside the
// fleet, with the exported frame codec: n sequential queries each. It
// returns each round trip in wall µs and each overshoot — served time
// beyond the requested service — in reported ms.
func (b *bench) instanceProbe(timeScale float64, conc, n int) (rtt, over []float64, err error) {
	model := b.w.models[0]
	const typ = "r5n.large"
	fleet := kairos.NewExecFleet(b.bin, timeScale, model)
	defer fleet.Close()
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, conc)
	for c := 0; c < conc; c++ {
		addr, err := fleet.Launch(model, typ)
		if err != nil {
			wg.Wait()
			return nil, nil, fmt.Errorf("instance probe: %w", err)
		}
		wg.Add(1)
		go func(c int, addr string) {
			defer wg.Done()
			r, o, err := b.probeOne(addr, model, timeScale, int64(c), n)
			if err != nil {
				errs <- err
				return
			}
			mu.Lock()
			rtt, over = append(rtt, r...), append(over, o...)
			mu.Unlock()
		}(c, addr)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return nil, nil, err
	}
	return rtt, over, nil
}

func (b *bench) probeOne(addr, model string, timeScale float64, seq int64, n int) (rtt, over []float64, err error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	var hello server.Hello
	if err := server.ReadFrame(br, &hello); err != nil {
		return nil, nil, fmt.Errorf("instance probe hello: %w", err)
	}
	if err := server.WriteFrame(conn, server.HelloAck{Proto: server.ProtoBinary}); err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(phaseSeed(b.seed, "instance-probe") + seq))
	var wbuf, rbuf []byte
	for i := 0; i < n; i++ {
		batch := 1 + rng.Intn(32)
		wbuf, err = server.AppendRequestFrame(wbuf[:0], server.Request{ID: int64(i + 1), Model: model, Batch: batch})
		if err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		if _, err := conn.Write(wbuf); err != nil {
			return nil, nil, err
		}
		p, err := server.ReadRawFrame(br, rbuf)
		if err != nil {
			return nil, nil, err
		}
		t1 := time.Now()
		rbuf = p[:0]
		rep, err := server.DecodeReplyFrame(p)
		if err != nil {
			return nil, nil, err
		}
		if rep.Err != "" {
			return nil, nil, fmt.Errorf("instance probe: %s", rep.Err)
		}
		b.rec.add("instance.probe", seq<<32|int64(i), t0, t1)
		d := t1.Sub(t0)
		rtt = append(rtt, float64(d.Nanoseconds())/1e3)
		over = append(over, (float64(d.Nanoseconds())/1e6-rep.ServiceMS*timeScale)/b.w.unit)
	}
	return rtt, over, nil
}

// httpProbe submits closed loop over HTTP POST /submit until stop closes
// and returns each round trip in wall µs.
// It books its outcomes into t and returns its own attempted and failed
// counts, since it runs beside a phase.
func (b *bench) httpProbe(s *stack, t *tally, stop <-chan struct{}) (out []float64, attempted, failed int64, err error) {
	client := &http.Client{Timeout: drainTimeout}
	defer client.CloseIdleConnections()
	url := "http://" + s.ap.Ingress().HTTPAddr() + "/submit"
	rng := rand.New(rand.NewSource(phaseSeed(b.seed, "http-probe")))
	for {
		select {
		case <-stop:
			return out, attempted, failed, nil
		default:
		}
		model := b.w.models[rng.Intn(len(b.w.models))]
		body := fmt.Sprintf(`{"model":%q,"batch":%d}`, model, 1+rng.Intn(64))
		t0 := time.Now()
		attempted++
		resp, err := client.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.transport++
			failed++
			return out, attempted, failed, fmt.Errorf("http probe: %w", err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		t1 := time.Now()
		var rep struct {
			Error string `json:"error"`
		}
		if err == nil {
			err = json.Unmarshal(raw, &rep)
		}
		switch {
		case err != nil:
			t.transport++
			failed++
			return out, attempted, failed, fmt.Errorf("http probe reply: %w", err)
		case rep.Error == kairos.IngressQueueFullMsg || rep.Error == kairos.IngressRateLimitedMsg:
			t.refused++
			failed++
		case rep.Error != "" || resp.StatusCode != http.StatusOK:
			t.httpErr++
			failed++
		default:
			t.httpOK++
			out = append(out, float64(t1.Sub(t0).Nanoseconds())/1e3)
			b.rec.add("ingress.http_submit", 0, t0, t1)
		}
	}
}
