package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"kairos"
)

// Outcomes of one attempted query. Every attempted query must end with
// exactly one.
const (
	outNone int32 = iota
	outOK
	outRefused   // queue-full or rate-limited reply from the front door
	outErrReply  // any other error reply
	outTransport // the connection failed
)

// phaseRun is one phase's per-query record, indexed like the schedule.
type phaseRun struct {
	sched   schedule
	startNS int64 // phase epoch, offset from the run epoch
	sentNS  []int64
	doneNS  []int64
	outcome []int32
	// direct marks queries submitted straight to the controller
	// (Controller.SubmitWait) instead of through the ingress.
	direct []bool
	// serviceMS is the requested model service of direct queries.
	serviceMS []float64
	// attempted is how many leading arrivals were sent; a probe stops
	// sending once its backlog shows it has failed.
	attempted int
	aborted   bool
	doubled   int64 // outcomes recorded twice (a correctness failure)
	// backlog samples the client-side outstanding count over the send
	// window.
	backlog []int64
	// waiting samples the controller's central queue depth.
	waiting []int
}

// runOpts tune one phase.
type runOpts struct {
	// abortAt stops sending once this many queries are outstanding; 0
	// never stops.
	abortAt int64
	// directEvery sends every n-th arrival straight to the controller
	// (traced runs); 0 sends everything through the ingress.
	directEvery int
}

// windowQueries is the size of the windows a phase's p99 is taken over:
// enough for ten samples beyond the p99 of each.
const windowQueries = 1000

// drainTimeout bounds the wait for a phase's last reply.
const drainTimeout = 30 * time.Second

// runPhase offers sched open loop: each query is sent when due, whether
// or not earlier ones were answered, and timed from its due time.
func (b *bench) runPhase(s *stack, sched schedule, o runOpts) (*phaseRun, error) {
	n := len(sched.arrivals)
	r := &phaseRun{sched: sched, sentNS: make([]int64, n), doneNS: make([]int64, n),
		outcome: make([]int32, n), direct: make([]bool, n), serviceMS: make([]float64, n)}
	ctrl := s.ap.Controller()
	var outstanding atomic.Int64
	var wg sync.WaitGroup
	record := func(i int, code int32) {
		r.doneNS[i] = b.now()
		if !atomic.CompareAndSwapInt32(&r.outcome[i], outNone, code) {
			atomic.AddInt64(&r.doubled, 1)
		}
		outstanding.Add(-1)
		wg.Done()
	}
	send := func(i int) {
		a := sched.arrivals[i]
		r.sentNS[i] = b.now()
		if r.direct[i] {
			res := ctrl.SubmitWait(a.model, a.batch)
			if res.Err != nil {
				record(i, outErrReply)
				return
			}
			r.serviceMS[i] = b.models[a.model].Latency(res.Instance, a.batch)
			record(i, outOK)
			return
		}
		rep, err := s.clients[a.conn].Submit(a.model, a.batch)
		switch {
		case err != nil:
			record(i, outTransport)
		case rep.Err == kairos.IngressQueueFullMsg || rep.Err == kairos.IngressRateLimitedMsg:
			record(i, outRefused)
		case rep.Err != "":
			record(i, outErrReply)
		default:
			record(i, outOK)
		}
	}

	stop := make(chan struct{})
	sampled := make(chan struct{})
	var sampleErr error
	go func() {
		defer close(sampled)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			r.backlog = append(r.backlog, outstanding.Load())
			st := ctrl.Stats()
			r.waiting = append(r.waiting, st.Waiting)
			if err := checkSnapshot(st); err != nil && sampleErr == nil {
				sampleErr = err
			}
		}
	}()

	// Start slightly in the future so the first arrival is not born late.
	start := time.Now().Add(5 * time.Millisecond)
	r.startNS = start.Sub(b.epoch).Nanoseconds()
	for i, a := range sched.arrivals {
		if o.abortAt > 0 && outstanding.Load() >= o.abortAt {
			r.aborted = true
			break
		}
		if d := time.Until(start.Add(time.Duration(a.dueNS))); d > 0 {
			pause(d)
		}
		r.direct[i] = o.directEvery > 0 && i%o.directEvery == 0
		outstanding.Add(1)
		wg.Add(1)
		r.attempted++
		go send(i)
	}
	close(stop)
	<-sampled
	if sampleErr != nil {
		return r, sampleErr
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(drainTimeout):
		return r, fmt.Errorf("phase %s: %d queries unanswered after %v", sched.name, outstanding.Load(), drainTimeout)
	}
	if r.doubled > 0 {
		return r, fmt.Errorf("phase %s: %d queries got two outcomes", sched.name, r.doubled)
	}
	for i := 0; i < r.attempted; i++ {
		if r.outcome[i] == outNone {
			return r, fmt.Errorf("phase %s: query %d has no outcome", sched.name, i)
		}
	}
	return r, nil
}

// pause sleeps for d on the kernel's high-resolution timer. The Go
// runtime's timers can wake a millisecond late in a process with little
// else to do, which at time scale 0.1 would add ten model milliseconds to
// every query's latency and make the generator send in bursts.
func pause(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// checkSnapshot enforces the controller's accounting invariant on one
// snapshot: nothing is completed or failed that was not submitted, per
// model and in total.
func checkSnapshot(st kairos.ControllerStats) error {
	if st.Completed+st.Failed > st.Submitted {
		return fmt.Errorf("snapshot: completed %d + failed %d > submitted %d", st.Completed, st.Failed, st.Submitted)
	}
	for m, ms := range st.Models {
		if ms.Completed+ms.Failed > ms.Submitted {
			return fmt.Errorf("snapshot %s: completed %d + failed %d > submitted %d", m, ms.Completed, ms.Failed, ms.Submitted)
		}
	}
	return nil
}

// phaseStats are the end-to-end figures of one phase (or a slice of one).
type phaseStats struct {
	attempted, ok, refused, errReply, transport int
	met                                         int
	// lat is every attempted query's latency from its due time in reported
	// ms; failed queries count as +Inf, so they miss any limit. byArrival
	// holds the same latencies in arrival order.
	lat       dist
	byArrival []float64
	// offered is the realized offered rate over the attempted queries.
	offered float64
}

func (p phaseStats) failed() int { return p.refused + p.errReply + p.transport }

// p99 is the phase's tail: the median, over consecutive windows of
// windowQueries arrivals, of each window's p99 (or the highest percentile
// the window supports, which it also returns). A phase shorter than two
// windows is one window. Taking the median over windows keeps a stall of
// the machine under the benchmark — which delays every query in flight
// at once — from deciding the tail of a whole phase by itself.
func (p phaseStats) p99() (float64, float64) {
	k := max(1, len(p.byArrival)/windowQueries)
	size := len(p.byArrival) / k
	var tails []float64
	pct := 0.0
	for i := 0; i < k; i++ {
		hi := (i + 1) * size
		if i == k-1 {
			hi = len(p.byArrival)
		}
		v, pc := newDist(p.byArrival[i*size : hi]).tail(99)
		tails = append(tails, v)
		pct = pc
	}
	return newDist(tails).p50(), pct
}

// stats summarizes arrivals [lo, hi) of the phase (whole phase: 0, -1).
func (r *phaseRun) stats(w spec, lo, hi int) phaseStats {
	if hi < 0 || hi > r.attempted {
		hi = r.attempted
	}
	var p phaseStats
	lats := make([]float64, 0, hi-lo)
	for i := lo; i < hi; i++ {
		p.attempted++
		l := math.Inf(1)
		switch r.outcome[i] {
		case outOK:
			p.ok++
			l = float64(r.doneNS[i]-r.startNS-r.sched.arrivals[i].dueNS) / 1e6 / w.unit
			if l <= w.limitMS {
				p.met++
			}
		case outRefused:
			p.refused++
		case outErrReply:
			p.errReply++
		default:
			p.transport++
		}
		lats = append(lats, l)
	}
	p.lat = newDist(lats)
	p.byArrival = lats
	if hi > lo {
		span := float64(r.sched.arrivals[hi-1].dueNS-r.sched.arrivals[lo].dueNS) / 1e9 / w.unit
		if hi-lo > 1 && span > 0 {
			p.offered = float64(hi-lo-1) / span
		}
	}
	return p
}

// backlogGrew reports whether the outstanding count rose over the send
// window by more than the latency limit can absorb.
func (r *phaseRun) backlogGrew(w spec) bool {
	return grew(r.backlog, r.sched.nominal*w.limitMS/1000)
}

// grew reports whether the median of the last quarter of samples
// exceeds that of the second quarter by more than allowance: the queries
// that arrive within one latency limit at the offered rate (Little's
// law). A backlog that grows by more delays the queries behind it past
// the limit however fast the rest of the path is; medians keep a burst
// that a stall leaves behind, and the system works off, from counting.
func grew(samples []int64, allowance float64) bool {
	n := len(samples)
	if n < 8 {
		return false
	}
	q := n / 4
	med := func(xs []int64) float64 {
		f := make([]float64, len(xs))
		for i, x := range xs {
			f[i] = float64(x)
		}
		return newDist(f).p50()
	}
	return med(samples[n-q:])-med(samples[q:2*q]) > allowance
}

// verdict judges a capacity probe: it passes when every arrival was sent,
// p99 met the limit (failures counting as misses) and the backlog did not
// grow; it fails hard when the backlog grew or p99 overshot the limit by
// more than hardMargin.
func (r *phaseRun) verdict(w spec) verdict {
	if r.aborted || r.backlogGrew(w) {
		return hard
	}
	p99, _ := r.stats(w, 0, -1).p99()
	switch {
	case p99 <= w.limitMS:
		return pass
	case p99 <= w.limitMS*(1+hardMargin):
		return soft
	}
	return hard
}

// sentRate is the rate the generator actually sent at, in reported
// queries/s: arrivals over the span of their send times.
func (r *phaseRun) sentRate(w spec) float64 {
	if r.attempted < 2 {
		return 0
	}
	span := float64(r.sentNS[r.attempted-1]-r.sentNS[0]) / 1e9 / w.unit
	return float64(r.attempted-1) / span
}

// drain waits until nothing is queued or in flight at the controller.
func drain(s *stack) error {
	deadline := time.Now().Add(drainTimeout)
	for time.Now().Before(deadline) {
		st := s.ap.Controller().Stats()
		if st.Waiting == 0 && st.Completed+st.Failed == st.Submitted {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("controller did not drain within %v", drainTimeout)
}
