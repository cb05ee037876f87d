package main

import (
	"math"
	"math/rand"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"testing"
	"time"
)

func TestQuantileMatchesExactSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 10, 99, 100, 1000, 1001, 4321} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.ExpFloat64()
		}
		exact := append([]float64(nil), xs...)
		sort.Float64s(exact)
		d := newDist(xs)
		for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
			// Nearest rank: the smallest value with at least q·n samples at
			// or below it.
			want := exact[0]
			for _, v := range exact {
				below := 0
				for _, u := range exact {
					if u <= v {
						below++
					}
				}
				if float64(below) >= q*float64(n) {
					want = v
					break
				}
			}
			if got := quantile(d.sorted, q); got != want {
				t.Errorf("n=%d q=%v: got %v, exact sort gives %v", n, q, got, want)
			}
		}
	}
}

func TestTailReportsHighestSupportedPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		pct  float64
	}{
		{10000, 99.9, 99.9},
		{9999, 99.9, 99},
		{1000, 99, 99},
		{999, 99, 90},
		{100, 99, 90},
		{99, 99, 50},
		{5, 99, 50},
	}
	for _, c := range cases {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		v, pct := newDist(xs).tail(c.want)
		if pct != c.pct {
			t.Errorf("n=%d want p%v: reported p%v, expected p%v", c.n, c.want, pct, c.pct)
			continue
		}
		// At least minBeyond samples lie above the reported value, unless
		// the rule fell back to the median.
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if pct > 50 && beyond < minBeyond {
			t.Errorf("n=%d p%v=%v has %d samples beyond it", c.n, pct, v, beyond)
		}
	}
}

// curve is a synthetic p99-versus-rate curve: flat at base below the
// knee, then far over the limit; noisy rungs fail softly.
func curveProbe(rates []float64, knee float64, softAt map[int]bool, probed *[]int) func(int) verdict {
	return func(i int) verdict {
		*probed = append(*probed, i)
		switch {
		case rates[i] > knee:
			return hard
		case softAt[i]:
			return soft
		}
		return pass
	}
}

func TestSearchCapacityFindsKnee(t *testing.T) {
	l := newLadder(20, 70, 210, ladderStep)
	highestBelow := func(knee float64) int {
		best := -1
		for i, r := range l.rates {
			if r <= knee {
				best = i
			}
		}
		return best
	}
	for _, knee := range []float64{25, 50, 69, 70, 71, 77.5, 88, 93, 150, 209} {
		var probed []int
		got, order := searchCapacity(len(l.rates), l.start, 2, 100, curveProbe(l.rates, knee, nil, &probed))
		if want := highestBelow(knee); got != want {
			t.Errorf("knee %v: found rung %d (%.1f/s), want %d (%.1f/s); probed %v", knee, got, l.rates[max(got, 0)], want, l.rates[want], order)
		}
		if !reflect.DeepEqual(order, probed) {
			t.Errorf("knee %v: order %v differs from probes run %v", knee, order, probed)
		}
	}
	// Below the bottom rung nothing passes.
	var probed []int
	if got, _ := searchCapacity(len(l.rates), l.start, 2, 100, curveProbe(l.rates, 1, nil, &probed)); got != -1 {
		t.Errorf("knee below the ladder: found rung %d", got)
	}
}

func TestSearchCapacityClimbsThroughSoftFailures(t *testing.T) {
	l := newLadder(20, 70, 210, ladderStep)
	// A soft failure two rungs above the start must not end the climb:
	// the highest passing rung below the knee is the answer.
	var probed []int
	got, order := searchCapacity(len(l.rates), l.start, 2, 100,
		curveProbe(l.rates, 90, map[int]bool{l.start + 2: true}, &probed))
	if l.rates[got] > 90 || l.rates[got+1] <= 90 {
		t.Errorf("found %.1f/s, want the last rung below 90/s; probed %v", l.rates[got], order)
	}
	// The rung just below the knee failing softly leaves the next one down.
	probed = nil
	knee := l.start + 5 // rates[knee] is the first rung over the knee
	got, _ = searchCapacity(len(l.rates), l.start, 2, 100,
		curveProbe(l.rates, l.rates[knee-1], map[int]bool{knee - 1: true}, &probed))
	if got != knee-2 {
		t.Errorf("soft failure at rung %d: found %d, want %d", knee-1, got, knee-2)
	}
	// The probe budget bounds the search.
	probed = nil
	got, order = searchCapacity(len(l.rates), l.start, 2, 3, curveProbe(l.rates, 200, nil, &probed))
	if len(order) != 3 || len(probed) != 3 {
		t.Errorf("budget 3: probed %v", order)
	}
	if got != l.start+4 {
		t.Errorf("budget 3: found rung %d, want the highest passing probe %d", got, l.start+4)
	}
}

func TestSelfTimeFromNestedSpans(t *testing.T) {
	spans := []span{
		{Name: "loadgen.send", Seq: 1, StartNS: 0, EndNS: 100},
		{Name: "ingress.submit", Seq: 1, Parent: "loadgen.send", StartNS: 10, EndNS: 40},
		// Overlaps the first child: the union covers 10..60.
		{Name: "ingress.submit", Seq: 1, Parent: "loadgen.send", StartNS: 30, EndNS: 60},
		// Sticks out past the parent: only the part inside counts.
		{Name: "ingress.submit", Seq: 1, Parent: "loadgen.send", StartNS: 90, EndNS: 130},
		{Name: "loadgen.send", Seq: 2, StartNS: 200, EndNS: 250},
		{Name: "controller.submit", Seq: 2, Parent: "loadgen.send", StartNS: 205, EndNS: 250},
		// Another query's child never subtracts from this one.
		{Name: "loadgen.send", Seq: 3, StartNS: 0, EndNS: 10},
	}
	got := selfTimes(spans, "loadgen.send")
	want := []float64{100 - 50 - 10, 5, 10}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestSchedulesAreSeeded(t *testing.T) {
	for _, w := range workloads {
		a := w.steady(3, "ref", w.ref, 0.5)
		b := w.steady(3, "ref", w.ref, 0.5)
		c := w.steady(4, "ref", w.ref, 0.5)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different schedules", w.name)
		}
		if reflect.DeepEqual(a.arrivals, c.arrivals) {
			t.Errorf("%s: seeds 3 and 4 gave the same schedule", w.name)
		}
		durS := float64(a.durNS) / 1e9 / w.unit
		if n := len(a.arrivals); n < minQueries || math.Abs(float64(n)-w.ref*durS) > 1 {
			t.Errorf("%s: %d arrivals over %.3fs at %v/s", w.name, n, durS, w.ref)
		}
		for i := 1; i < len(a.arrivals); i++ {
			if a.arrivals[i].dueNS < a.arrivals[i-1].dueNS {
				t.Fatalf("%s: arrivals out of order at %d", w.name, i)
			}
		}
		s1, s2, s3 := w.shifted(3, 2), w.shifted(3, 2), w.shifted(4, 2)
		if !reflect.DeepEqual(s1, s2) {
			t.Errorf("%s: the same seed gave different shifted schedules", w.name)
		}
		if s1.shiftNS == s3.shiftNS {
			t.Errorf("%s: seeds 3 and 4 put the shift at the same point", w.name)
		}
		if f := float64(s1.shiftNS) / 2e9; f < 0.45 || f > 0.55 {
			t.Errorf("%s: shift at %.3f of the run", w.name, f)
		}
	}
}

// TestWrappersDoNotChangeProgram deploys the rm2-steady stack twice, once
// with the registry's "kairos" policy and once with the timed wrapper,
// and sends both the same seeded queries one at a time: the plan and the
// queries each instance served must match.
func TestWrappersDoNotChangeProgram(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs kairosd")
	}
	bin := filepath.Join(t.TempDir(), "kairosd")
	if out, err := exec.Command("go", "build", "-o", bin, "kairos/cmd/kairosd").CombinedOutput(); err != nil {
		t.Fatalf("build kairosd: %v\n%s", err, out)
	}
	w, err := specByName("rm2-steady")
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder(time.Now())
	if err := registerTimedPolicy(rec); err != nil {
		t.Fatal(err)
	}
	run := func(policy string, r *recorder) (string, []string) {
		s, _, err := buildStack(w, bin, policy, r)
		if err != nil {
			t.Fatal(err)
		}
		defer s.close()
		sched := w.steady(5, "wrappers", w.light, 0.5)
		for _, a := range sched.arrivals[:150] {
			if res := s.ap.Controller().SubmitWait(a.model, a.batch); res.Err != nil {
				t.Fatal(res.Err)
			}
		}
		var served []string
		for _, in := range s.ap.Controller().Stats().Instances {
			served = append(served, in.TypeName+":"+strconv.FormatInt(in.Dispatched, 10))
		}
		return s.ap.Current().String(), served
	}
	plainPlan, plainServed := run("kairos", nil)
	timedPlan, timedServed := run(timedPolicyName, rec)
	if plainPlan != timedPlan {
		t.Errorf("plan %s unwrapped, %s wrapped", plainPlan, timedPlan)
	}
	if !reflect.DeepEqual(plainServed, timedServed) {
		t.Errorf("per-instance dispatches differ:\nunwrapped %v\nwrapped   %v", plainServed, timedServed)
	}
	if len(rec.rounds) == 0 {
		t.Error("the timed policy recorded no rounds")
	}
}
