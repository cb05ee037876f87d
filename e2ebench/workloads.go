package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"kairos"
	"kairos/internal/workload"
)

// spec describes one benchmark workload: the deployment the serving stack
// is built for and the load offered to it.
type spec struct {
	name   string
	models []string
	budget float64
	// timeScale is the fleet's wall seconds per model second.
	timeScale float64
	// unit converts wall time to the reported unit: reported ms = wall ms
	// ÷ unit and reported rate = wall rate × unit. It equals timeScale
	// where latencies are reported in model time and 1 where service is
	// compressed to nothing and only wall time means anything.
	unit float64
	// limitMS is the latency limit in reported ms.
	limitMS float64
	// light and ref are the fixed offered rates in reported queries/s.
	light, ref float64
	// searchFrom is the capacity search's first rate.
	searchFrom float64
	// shift runs the batch-mix inversion with the control loop started
	// instead of the fixed-rate phases.
	shift bool
}

var workloads = []spec{
	{
		name: "rm2-steady", models: []string{"RM2"}, budget: 2.5,
		timeScale: 0.1, unit: 0.1, limitMS: 350,
		light: 20, ref: 70, searchFrom: 70,
	},
	{
		name: "rm2-fleet", models: []string{"RM2"}, budget: 5,
		timeScale: 0.1, unit: 0.1, limitMS: 350,
		light: 80, ref: 160, searchFrom: 160,
	},
	{
		name: "path-saturate", models: []string{"NCF", "MT-WND"}, budget: 2.5,
		timeScale: 1e-6, unit: 1, limitMS: 5,
		light: 2000, ref: 8000, searchFrom: 16000,
	},
	{
		name: "mix-shift", models: []string{"RM2"}, budget: 2.5,
		timeScale: 0.1, unit: 0.1, limitMS: 350,
		light: 35, ref: 35, shift: true,
	},
}

func specByName(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// ingressConns is the number of ingress TCP connections the load rides.
const ingressConns = 2

// arrival is one scheduled query: due at dueNS after the phase start
// (wall), for model, with batch, on ingress connection conn.
type arrival struct {
	dueNS int64
	model string
	batch int
	conn  int
}

// schedule is one phase's arrivals plus the rate they realize.
type schedule struct {
	name     string
	arrivals []arrival
	// nominal is the rate the phase was generated at, in reported
	// queries/s.
	nominal float64
	// durNS is the phase length in wall ns.
	durNS int64
	// shiftNS, when positive, is where a mix shift lands.
	shiftNS int64
}

// phaseSeed derives an independent, reproducible stream per phase so the
// arrivals of one phase never depend on which other phases ran.
func phaseSeed(seed int64, phase string) int64 {
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, c := range phase {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	return int64(h >> 1)
}

// fromScenario realizes a workload.Scenario (times in reported ms) as a
// wall-clock schedule, drawing each arrival's model and connection from
// the same seeded stream.
func (w spec) fromScenario(sc workload.Scenario, seed int64, name string) schedule {
	s := phaseSeed(seed, name)
	arr := sc.Generate(s)
	rng := rand.New(rand.NewSource(s + 1))
	out := schedule{name: name, durNS: int64(sc.DurationMS() * w.unit * 1e6)}
	out.arrivals = make([]arrival, len(arr))
	for i, a := range arr {
		out.arrivals[i] = arrival{
			dueNS: int64(a.AtMS * w.unit * 1e6),
			model: w.models[rng.Intn(len(w.models))],
			batch: a.Batch,
			conn:  rng.Intn(ingressConns),
		}
	}
	return out
}

// minQueries is the fewest arrivals a fixed-rate phase expects: enough
// that a p99 has ten samples beyond it even when the Poisson count falls
// three deviations short.
const minQueries = 1100

// steady is a constant-rate phase of at least wallSec wall seconds at
// rate reported queries/s with the default batch mix, long enough to
// expect minQueries arrivals. Its arrivals are a Poisson process
// conditioned on its count — rate × duration points placed uniformly at
// random — so the load offered is exactly the rate named, and two seeds
// differ in when queries arrive, not in how many.
func (w spec) steady(seed int64, name string, rate, wallSec float64) schedule {
	wallSec = math.Max(wallSec, minQueries/(rate/w.unit))
	durMS := wallSec * 1000 / w.unit
	n := int(math.Round(rate * durMS / 1000))
	rng := rand.New(rand.NewSource(phaseSeed(seed, name)))
	at := make([]float64, n)
	for i := range at {
		at[i] = rng.Float64() * durMS
	}
	sort.Float64s(at)
	dist := kairos.DefaultTrace()
	out := schedule{name: name, nominal: rate, durNS: int64(wallSec * 1e9), arrivals: make([]arrival, n)}
	for i, t := range at {
		out.arrivals[i] = arrival{
			dueNS: int64(t * w.unit * 1e6),
			model: w.models[rng.Intn(len(w.models))],
			batch: dist.Sample(rng),
			conn:  rng.Intn(ingressConns),
		}
	}
	return out
}

// shifted is the batch-mix inversion: a constant rate whose batch mix
// flips from the default lognormal to the default Gaussian at a point the
// seed places within the middle tenth of the run.
func (w spec) shifted(seed int64, wallSec float64) schedule {
	durMS := wallSec * 1000 / w.unit
	at := 0.45 + 0.1*rand.New(rand.NewSource(phaseSeed(seed, "shift-point"))).Float64()
	sc := workload.Scenario{Name: "batch-mix-inversion", Phases: []workload.Phase{
		{DurationMS: durMS * at, StartQPS: w.ref, EndQPS: w.ref, Dist: kairos.DefaultTrace()},
		{DurationMS: durMS * (1 - at), StartQPS: w.ref, EndQPS: w.ref, Dist: kairos.DefaultGaussian()},
	}}
	out := w.fromScenario(sc, seed, "shift")
	out.nominal = w.ref
	out.shiftNS = int64(durMS * at * w.unit * 1e6)
	return out
}

// ladder holds the capacity search's candidate rates: ref × step^k for
// k from lo to hi (reported queries/s), generated before any probe runs.
type ladder struct {
	rates []float64
	start int // index of the reference rate
}

func newLadder(light, ref, top, step float64) ladder {
	var l ladder
	lo := int(math.Floor(math.Log(light/ref) / math.Log(step)))
	hi := int(math.Ceil(math.Log(top/ref) / math.Log(step)))
	for k := lo; k <= hi; k++ {
		l.rates = append(l.rates, ref*math.Pow(step, float64(k)))
	}
	l.start = -lo
	return l
}

// verdict is a capacity probe's outcome.
type verdict int

const (
	pass verdict = iota
	// soft: p99 over the limit by at most hardMargin, the noise band of
	// a tail that sits near the limit at every rate.
	soft
	// hard: p99 well over the limit, or a backlog that grew.
	hard
)

// hardMargin is the share over the limit beyond which a failed probe
// marks the knee rather than noise.
const hardMargin = 0.10

// searchCapacity finds the highest ladder rung whose probe passes. From
// start it climbs stride rungs at a time through passes and soft
// failures until a hard failure (the knee) or the top of the ladder. It
// then works down, one rung at a time, from just below the climb rung
// above the highest climb pass, and stops at the first pass; if no climb
// rung passed it works down from just below start. probe runs one rung;
// budget caps the number of probes, and a search cut short settles for
// the highest pass. It returns the passing rung (-1 when none passed)
// and the rungs probed in order.
func searchCapacity(n, start, stride, budget int, probe func(i int) verdict) (int, []int) {
	var order []int
	best := -1
	try := func(i int) (verdict, bool) {
		if len(order) >= budget {
			return hard, false
		}
		order = append(order, i)
		v := probe(i)
		if v == pass && i > best {
			best = i
		}
		return v, true
	}
	knee := n
	for i := start; i < n; i += stride {
		if v, ok := try(i); !ok || v == hard {
			knee = i
			break
		}
	}
	top, bottom := start, -1
	if best >= 0 {
		top, bottom = min(best+stride, knee), best
	}
	for j := top - 1; j > bottom; j-- {
		if v, ok := try(j); !ok || v == pass {
			break
		}
	}
	return best, order
}
