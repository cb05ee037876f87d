package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"kairos/internal/cloud"
	"kairos/internal/models"
	"kairos/internal/workload"
)

// TestFleetPlannerCapChangeKeepsCachedFrontier pins the fix for the
// capFrontier aliasing bug: the old code clamped ub in place and
// truncated the shared points slice, which was harmless on a frontier
// built fresh per call but would corrupt a cached one the first time a
// demand cap changed between ticks. The planner applies the cap at read
// time, so planning repeatedly with different ArrivalQPS against the
// same cached frontier must match a from-scratch plan every time.
func TestFleetPlannerCapChangeKeepsCachedFrontier(t *testing.T) {
	t.Parallel()
	pool := cloud.DefaultPool()
	m := models.MustByName("NCF")
	const budget = 2.0
	samples := fleetSamples(workload.Uniform{Min: 10, Max: 60}, 1000, 11)

	planner, err := NewFleetPlanner(pool, budget)
	if err != nil {
		t.Fatal(err)
	}
	plan := func(d ModelDemand) FleetPlan {
		t.Helper()
		if err := planner.SetDemands([]ModelDemand{d}); err != nil {
			t.Fatal(err)
		}
		got, err := planner.Plan(budget)
		if err != nil {
			t.Fatal(err)
		}
		want, err := PlanFleet(pool, []ModelDemand{d}, budget)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("cached frontier diverged from scratch: %v vs %v (demand %+v)", got, want, d)
		}
		return got.Clone()
	}

	uncapped := plan(ModelDemand{Model: m, Samples: samples})
	est, err := NewEstimator(pool, m, samples, EstimatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	maxQPS := est.UpperBound(uncapped[m.Name])
	if maxQPS <= 0 {
		t.Fatalf("uncapped plan %v serves nothing", uncapped)
	}

	// A binding cap, a different binding cap, then the cap removed — all
	// against the one cached frontier. The in-place clamp would have
	// frozen the first ceiling into the cache.
	tight := plan(ModelDemand{Model: m, Samples: samples, ArrivalQPS: maxQPS / 10})
	if tight.Cost(pool) >= uncapped.Cost(pool) {
		t.Fatalf("tight cap did not bind: $%.3f vs $%.3f", tight.Cost(pool), uncapped.Cost(pool))
	}
	loose := plan(ModelDemand{Model: m, Samples: samples, ArrivalQPS: maxQPS / 2})
	if loose.Cost(pool) < tight.Cost(pool)-1e-9 {
		t.Fatalf("looser cap bought less: %v vs %v", loose, tight)
	}
	restored := plan(ModelDemand{Model: m, Samples: samples})
	if !restored.Equal(uncapped) {
		t.Fatalf("removing the cap must restore the full-throughput plan: %v vs %v", restored, uncapped)
	}
}

// randomWindow draws a random-size batch window from a random uniform mix.
func randomWindow(rng *rand.Rand) []int {
	lo := 1 + rng.Intn(200)
	dist := workload.Uniform{Min: lo, Max: lo + 1 + rng.Intn(400)}
	out := make([]int, 50+rng.Intn(300))
	for i := range out {
		out[i] = dist.Sample(rng)
	}
	return out
}

// perturbPool returns a standard pool with randomly scaled prices, so
// the property test explores frontiers the hand-written tests never hit.
func perturbPool(rng *rand.Rand) cloud.Pool {
	base := cloud.DefaultPool()
	if rng.Intn(2) == 0 {
		base = cloud.ThreeTypePool()
	}
	pool := make(cloud.Pool, len(base))
	copy(pool, base)
	for i := range pool {
		pool[i].PricePerHour *= 0.7 + 0.6*rng.Float64()
	}
	return pool
}

func randomDemands(rng *rand.Rand, k int) []ModelDemand {
	cat := models.Catalog()
	out := make([]ModelDemand, k)
	for i := range out {
		out[i] = ModelDemand{
			Model:   twin(cat[rng.Intn(len(cat))], fmt.Sprintf("m%02d", i)),
			Samples: randomWindow(rng),
		}
		if rng.Intn(2) == 0 {
			out[i].ArrivalQPS = rng.Float64() * 200
			if rng.Intn(2) == 0 {
				out[i].Headroom = rng.Float64()
			}
		}
	}
	return out
}

// TestFleetPlannerMatchesFromScratch is the oracle that makes the cache
// trustworthy: across randomized pools, demand sets, budgets, and
// sequences of window/cap/demand-set mutations, the incremental
// planner's result must stay Equal to a from-scratch PlanFleet over the
// same inputs after every mutation.
func TestFleetPlannerMatchesFromScratch(t *testing.T) {
	t.Parallel()
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(int64(seed)))
			pool := perturbPool(rng)
			budget := 0.3 + 1.7*rng.Float64()
			planner, err := NewFleetPlanner(pool, budget)
			if err != nil {
				t.Fatal(err)
			}
			verify := func(step string, cur []ModelDemand, got FleetPlan, b float64) {
				t.Helper()
				want, err := PlanFleet(pool, cur, b)
				if err != nil {
					t.Fatalf("%s: from-scratch: %v", step, err)
				}
				if !got.Equal(want) {
					t.Fatalf("%s: incremental %v != from-scratch %v (budget %v)", step, got, want, b)
				}
			}

			demands := randomDemands(rng, 2+rng.Intn(4))
			if err := planner.SetDemands(demands); err != nil {
				t.Fatal(err)
			}
			got, err := planner.Plan(budget)
			if err != nil {
				t.Fatal(err)
			}
			verify("initial", demands, got, budget)

			for step := 0; step < 10; step++ {
				name := fmt.Sprintf("step%d", step)
				b := budget
				if rng.Intn(3) == 0 {
					b = budget * (0.1 + 0.9*rng.Float64()) // scale-in replans shrink the budget
				}
				switch rng.Intn(5) {
				case 0: // one window moves: the single-model replan slice
					i := rng.Intn(len(demands))
					demands[i].Samples = randomWindow(rng)
					got, err = planner.ReplanModel(demands[i], b)
				case 1: // caps change only; every frontier stays cached
					i := rng.Intn(len(demands))
					demands[i].ArrivalQPS = rng.Float64() * 200
					demands[i].Headroom = rng.Float64()
					if err = planner.SetDemands(demands); err == nil {
						got, err = planner.Plan(b)
					}
				case 2: // several windows move at once
					for i := range demands {
						if rng.Intn(2) == 0 {
							demands[i].Samples = randomWindow(rng)
						}
					}
					if err = planner.SetDemands(demands); err == nil {
						got, err = planner.Plan(b)
					}
				case 3: // nothing moved: the pure cache-hit steady path
					if err = planner.SetDemands(demands); err == nil {
						got, err = planner.Plan(b)
					}
				case 4: // shrink the active set, then restore it
					if len(demands) > 1 {
						sub := demands[:1+rng.Intn(len(demands)-1)]
						if err := planner.SetDemands(sub); err != nil {
							t.Fatal(err)
						}
						subGot, err := planner.Plan(b)
						if err != nil {
							t.Fatal(err)
						}
						verify(name+"/subset", sub, subGot, b)
					}
					if err = planner.SetDemands(demands); err == nil {
						got, err = planner.Plan(b)
					}
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				verify(name, demands, got, b)
			}
		})
	}
}

// TestUpperBoundIntoMatchesUpperBound: the planner's prepared-aggregate
// fast path must be bit-identical to the reference UpperBound over the
// whole candidate space, before and after a window Reset.
func TestUpperBoundIntoMatchesUpperBound(t *testing.T) {
	t.Parallel()
	pool := cloud.DefaultPool()
	m := models.MustByName("RM2")
	est, err := NewEstimator(pool, m, fleetSamples(workload.Uniform{Min: 10, Max: 120}, 500, 13), EstimatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var scratch []float64
	check := func() {
		t.Helper()
		for _, cfg := range pool.Enumerate(1.5) {
			var fast float64
			fast, scratch = est.upperBoundInto(cfg, scratch)
			if want := est.UpperBound(cfg); fast != want {
				t.Fatalf("upperBoundInto(%v) = %v, UpperBound = %v", cfg, fast, want)
			}
		}
	}
	check()
	if err := est.Reset(fleetSamples(workload.Uniform{Min: 200, Max: 600}, 800, 14)); err != nil {
		t.Fatal(err)
	}
	check()
}

// TestEstimatorResetMatchesFresh: a Reset estimator must be
// indistinguishable from one built fresh over the new window.
func TestEstimatorResetMatchesFresh(t *testing.T) {
	t.Parallel()
	pool := cloud.DefaultPool()
	m := models.MustByName("NCF")
	est, err := NewEstimator(pool, m, fleetSamples(workload.Uniform{Min: 10, Max: 60}, 400, 15), EstimatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	next := fleetSamples(workload.Uniform{Min: 100, Max: 900}, 700, 16)
	if err := est.Reset(next); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewEstimator(pool, m, next, EstimatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range pool.Enumerate(1.2) {
		if got, want := est.UpperBound(cfg), fresh.UpperBound(cfg); got != want {
			t.Fatalf("reset UpperBound(%v) = %v, fresh = %v", cfg, got, want)
		}
	}
	if err := est.Reset(nil); err == nil {
		t.Fatal("Reset(nil) must fail")
	}
	if err := est.Reset([]int{0}); err == nil {
		t.Fatal("Reset with out-of-range batch must fail")
	}
	// A failed Reset leaves the previous window in force.
	if got, want := est.UpperBound(cloud.Config{1, 0, 0, 0}), fresh.UpperBound(cloud.Config{1, 0, 0, 0}); got != want {
		t.Fatalf("failed Reset corrupted the window: %v vs %v", got, want)
	}
}

// TestFleetPlannerEnumOrderIsStableCostSort: the shared enumeration is
// sorted by (cost, enumeration index), which must give exactly the
// order of a stable sort by cost — equal-cost candidates in Enumerate's
// order — across budgets and across pools with and without spot
// variants, so every frontier (and every plan) is unchanged.
func TestFleetPlannerEnumOrderIsStableCostSort(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(5))
	// The catalog's prices almost never sum to exactly equal costs, so a
	// pool of binary-exact prices makes equal-cost groups common.
	tied := cloud.DefaultPool()
	for i, price := range []float64{0.5, 0.25, 0.25, 0.125} {
		tied[i].PricePerHour = price
	}
	pools := map[string]cloud.Pool{
		"default":         cloud.DefaultPool(),
		"three-type":      cloud.ThreeTypePool(),
		"perturbed":       perturbPool(rng),
		"tied":            tied,
		"tied+spot":       tied.WithSpotMarket(0.5, 0.05),
		"default+spot":    cloud.DefaultPool().WithSpotMarket(0.7, 0.05),
		"three-type+spot": cloud.ThreeTypePool().WithSpotMarket(0.7, 0.05),
	}
	budgets := []float64{0.3, 1, 1.5, 2.5, 5, 1 + 4*rng.Float64()}
	for name, pool := range pools {
		for _, budget := range budgets {
			if pool.HasSpot() && budget > 1.5 {
				continue // the doubled type set makes this space very large
			}
			planner, err := NewFleetPlanner(pool, budget)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]enumEntry, 0, len(planner.enum))
			for _, cfg := range pool.Enumerate(budget) {
				want = append(want, enumEntry{cfg: cfg, cost: pool.Cost(cfg)})
			}
			slices.SortStableFunc(want, func(a, b enumEntry) int { return cmp.Compare(a.cost, b.cost) })
			if len(planner.enum) != len(want) {
				t.Fatalf("%s at $%v: %d entries, want %d", name, budget, len(planner.enum), len(want))
			}
			ties := 0
			for i, got := range planner.enum {
				if !got.cfg.Equal(want[i].cfg) || got.cost != want[i].cost {
					t.Fatalf("%s at $%v: entry %d is %v ($%v), stable sort has %v ($%v)",
						name, budget, i, got.cfg, got.cost, want[i].cfg, want[i].cost)
				}
				if i > 0 && got.cost == planner.enum[i-1].cost {
					ties++
				}
			}
			if strings.HasPrefix(name, "tied") && budget >= 1 && ties == 0 {
				t.Fatalf("%s at $%v: no equal-cost candidates, the tie-break is untested", name, budget)
			}
		}
	}
}
