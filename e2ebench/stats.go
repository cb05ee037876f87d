package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// p99 over 200 samples rests on two values, so the rule steps down to the
// highest percentile the sample supports.
const minBeyond = 10

// rank is the 1-based nearest rank of the q-quantile among n samples:
// the smallest k with k ≥ q·n. The tolerance keeps 0.999·10000 at 9990
// despite binary rounding.
func rank(n int, q float64) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// quantile returns the q-quantile (0..1) of sorted by the nearest-rank
// rule: the smallest sample with at least q·n samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	return sorted[min(max(rank(n, q), 1), n)-1]
}

// tails are the percentiles a tail figure may fall back to.
var tails = []float64{99.9, 99, 90}

// supported returns the highest percentile p ≤ want (in percent) that has
// at least minBeyond samples above its rank among n samples; 50 is the
// floor.
func supported(n int, want float64) float64 {
	for _, p := range tails {
		if p <= want && n-rank(n, p/100) >= minBeyond {
			return p
		}
	}
	return 50
}

// dist is a sorted sample with the percentile rule applied.
type dist struct {
	sorted []float64
}

func newDist(samples []float64) dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return dist{sorted: s}
}

func (d dist) n() int { return len(d.sorted) }

// p50 is the median.
func (d dist) p50() float64 { return quantile(d.sorted, 0.5) }

// tail returns the highest supported percentile at or below want and the
// percentile it actually reports.
func (d dist) tail(want float64) (value, pct float64) {
	pct = supported(d.n(), want)
	return quantile(d.sorted, pct/100), pct
}

func (d dist) max() float64 {
	if len(d.sorted) == 0 {
		return math.NaN()
	}
	return d.sorted[len(d.sorted)-1]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// span is one timed interval of the traced run. Spans of one query share
// Seq; Parent names the enclosing span's Name within that query (empty
// for a root).
type span struct {
	Name   string `json:"name"`
	Seq    int64  `json:"seq"`
	Parent string `json:"parent,omitempty"`
	// StartNS and EndNS are offsets from the run's epoch.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

func (s span) durNS() int64 { return s.EndNS - s.StartNS }

// selfTimes returns, for every span named name, its duration minus the
// part of its interval covered by its children (spans of the same Seq
// whose Parent is name). Overlapping children are merged, so two parallel
// children never subtract twice.
func selfTimes(spans []span, name string) []float64 {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent == name {
			children[s.Seq] = append(children[s.Seq], [2]int64{s.StartNS, s.EndNS})
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		out = append(out, float64(s.durNS()-covered(s.StartNS, s.EndNS, children[s.Seq])))
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}
