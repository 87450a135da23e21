package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile, so the tail is never a single outlier.
const minBeyond = 10

// rank is the 1-based nearest-rank position of percentile p among n
// sorted samples. The tolerance keeps p/100·n from rounding up past an
// exact rank, as 0.999·10000 does.
func rank(p float64, n int) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank percentile p of xs (not modified).
// It returns 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(p, len(s))-1]
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentile is the percentile the tail metrics read.
const tailPercentile = 90

// tail is a tail-latency figure with the percentile it was read at and the
// number of samples it was read from.
type tail struct {
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
	Value      float64 `json:"value"`
}

// samples holds latencies in milliseconds by request kind: the job of the
// mix a request belongs to, or the operand an upload carries.
type samples map[string][]float64

func (s samples) add(kind string, v float64) { s[kind] = append(s[kind], v) }

func (s samples) merge(o samples) {
	for k, xs := range o {
		s[k] = append(s[k], xs...)
	}
}

// p50 is the geometric mean over kinds of each kind's median. A request's
// latency is set mostly by its kind, and the kinds of a mix have ranges
// that barely overlap, so the median of the pooled samples sits at the
// edge of one kind's range, or in the gap between two, and jumps from run
// to run; each kind's median is steady, and in their geometric mean every
// kind weighs the same, however fast it is.
func (s samples) p50() float64 {
	if len(s) == 0 {
		return 0
	}
	var logs float64
	for _, xs := range s {
		logs += math.Log(median(xs))
	}
	return math.Exp(logs / float64(len(s)))
}

// ratios returns every sample divided by the median of its kind.
func (s samples) ratios() []float64 {
	var out []float64
	for _, xs := range s {
		m := median(xs)
		for _, x := range xs {
			out = append(out, x/m)
		}
	}
	return out
}

// tailOf reads percentile p of latency as p50 times percentile p of every
// sample over the median of its kind in its group: the whole run, or each
// slice of it. A kind's median sets the scale its samples are read
// against, so each kind's tail counts however fast the kind is, and all
// samples of the run back the percentile rather than one kind's few. With
// a slice's own medians, a slow-down of the machine that lasts a few
// seconds moves that slice's samples and their scale together, not the
// tail; p50, a median over the run, hardly moves with it either. It fails
// when fewer than minBeyond samples lie beyond p: a run too short or too
// slow reports nothing rather than a lower percentile.
func tailOf(p50 float64, groups []samples, p float64) (tail, error) {
	var ratios []float64
	for _, g := range groups {
		ratios = append(ratios, g.ratios()...)
	}
	n := len(ratios)
	if beyond := n - rank(p, n); n == 0 || beyond < minBeyond {
		return tail{}, fmt.Errorf("p%v of %d samples has %d beyond it, fewer than %d", p, n, max(beyond, 0), minBeyond)
	}
	return tail{Percentile: p, Samples: n, Value: p50 * percentile(ratios, p)}, nil
}

// kindSummary is one kind's sample count and median.
type kindSummary struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50"`
}

// byKind summarizes every kind.
func (s samples) byKind() map[string]kindSummary {
	out := make(map[string]kindSummary, len(s))
	for k, xs := range s {
		out[k] = kindSummary{len(xs), median(xs)}
	}
	return out
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
