package sim

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// This file holds the random-variate and summary-statistics helpers
// shared by the trace generator and the system model. All variates
// take an explicit *rand.Rand so callers control determinism.

// Exp draws an exponential variate with the given mean.
func Exp(rng *rand.Rand, mean float64) float64 {
	return rng.ExpFloat64() * mean
}

// LogNormal draws exp(N(mu, sigma^2)).
func LogNormal(rng *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(rng.NormFloat64()*sigma + mu)
}

// LogNormalMean returns the mu parameter such that a LogNormal(mu,
// sigma) variate has the requested mean: mean = exp(mu + sigma^2/2).
func LogNormalMean(mean, sigma float64) (mu float64) {
	return math.Log(mean) - sigma*sigma/2
}

// Pareto draws a bounded Pareto variate with shape alpha on [lo, hi].
func Pareto(rng *rand.Rand, alpha, lo, hi float64) float64 {
	if lo <= 0 || hi <= lo {
		panic("sim: Pareto requires 0 < lo < hi")
	}
	u := rng.Float64()
	la := math.Pow(lo, alpha)
	ha := math.Pow(hi, alpha)
	return math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/alpha)
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Zipf returns a sampler over {0, ..., n-1} with Zipf exponent s
// (s > 1 required by math/rand).
func Zipf(rng *rand.Rand, s float64, n int) func() int {
	z := rand.NewZipf(rng, s, 1, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}

// Welford accumulates a streaming mean, minimum and maximum.
type Welford struct {
	N    int
	mean float64
	Min  float64
	Max  float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.N++
	if w.N == 1 {
		w.Min, w.Max = x, x
	} else {
		if x < w.Min {
			w.Min = x
		}
		if x > w.Max {
			w.Max = x
		}
	}
	w.mean += (x - w.mean) / float64(w.N)
}

// Mean returns the running mean (0 for no observations).
func (w *Welford) Mean() float64 { return w.mean }

// Quantiles computes the requested quantiles (each in [0,1]) of xs.
// xs is sorted in place. Empty input yields zeros.
func Quantiles(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		return out
	}
	sort.Float64s(xs)
	for i, q := range qs {
		pos := q * float64(len(xs)-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		if lo == hi {
			out[i] = xs[lo]
		} else {
			frac := pos - float64(lo)
			out[i] = xs[lo]*(1-frac) + xs[hi]*frac
		}
	}
	return out
}

// Histogram buckets observations into log-spaced bins, mirroring the
// log-x-axis presentation of the paper's Figure 5.
type Histogram struct {
	Lo, Hi float64 // value range covered by the bins
	Bins   []int
	n      int
}

// NewLogHistogram builds a histogram with the given number of
// log-spaced bins spanning [lo, hi].
func NewLogHistogram(lo, hi float64, bins int) *Histogram {
	if lo <= 0 || hi <= lo || bins <= 0 {
		panic("sim: bad histogram parameters")
	}
	return &Histogram{Lo: lo, Hi: hi, Bins: make([]int, bins)}
}

// Add records one observation; out-of-range values clamp to the edge
// bins.
func (h *Histogram) Add(v float64) {
	h.n++
	if v < h.Lo {
		h.Bins[0]++
		return
	}
	if v >= h.Hi {
		h.Bins[len(h.Bins)-1]++
		return
	}
	f := math.Log(v/h.Lo) / math.Log(h.Hi/h.Lo)
	i := int(f * float64(len(h.Bins)))
	if i >= len(h.Bins) {
		i = len(h.Bins) - 1
	}
	h.Bins[i]++
}

// N returns the number of observations recorded.
func (h *Histogram) N() int { return h.n }

// BinCenter returns the geometric center value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	step := math.Log(h.Hi/h.Lo) / float64(len(h.Bins))
	return h.Lo * math.Exp(step*(float64(i)+0.5))
}

// Probability returns the fraction of observations in bin i.
func (h *Histogram) Probability(i int) float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.Bins[i]) / float64(h.n)
}

// Seconds converts a float64 second count into a time.Duration.
func Seconds(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// ToSeconds converts a duration to float64 seconds.
func ToSeconds(d time.Duration) float64 { return d.Seconds() }
