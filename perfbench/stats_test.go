package main

import (
	"math"
	"testing"
)

// oneKind returns samples of a single kind holding 1..n.
func oneKind(n int) samples {
	s := samples{}
	for i := 0; i < n; i++ {
		s.add("k", float64(i+1))
	}
	return s
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{0, 50, false},
		{19, 50, false},
		{20, 50, true},
		{39, 75, false},
		{40, 75, true},
		{99, 90, false},
		{100, 90, true},
		{100, 95, false},
	} {
		tl, err := tailOf(1, []samples{oneKind(c.n)}, c.p)
		if (err == nil) != c.ok {
			t.Errorf("p%v of %d samples: err = %v, want ok = %v", c.p, c.n, err, c.ok)
			continue
		}
		if c.ok && (tl.Percentile != c.p || tl.Samples != c.n || c.n-rank(c.p, c.n) < minBeyond) {
			t.Errorf("p%v of %d samples: got %+v", c.p, c.n, tl)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 95: 95, 99: 99, 99.9: 100} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
	s := oneKind(100)
	tl, err := tailOf(s.p50(), []samples{s}, 90)
	if err != nil || tl.Value != 90 {
		t.Errorf("tail of one kind 1..100 at p90 = %+v, %v; want 90", tl, err)
	}
}

func TestP50IsTheGeometricMeanOfKindMedians(t *testing.T) {
	s := samples{}
	for i := 0; i < 11; i++ {
		s.add("fast", float64(5+i))  // median 10
		s.add("slow", float64(35+i)) // median 40
	}
	if got := s.p50(); math.Abs(got-20) > 1e-9 {
		t.Errorf("p50 = %v, want 20, the geometric mean of 10 and 40", got)
	}
	if (samples{}).p50() != 0 {
		t.Error("no samples: p50 should be 0")
	}
}

func TestTailScalesEveryKindByItsMedian(t *testing.T) {
	// Two kinds with the same shape, one ten times the other: the pooled
	// ratios are those of one kind, so the tail is p50 times the one
	// kind's p90 over its median.
	s := samples{}
	for i := 1; i <= 100; i++ {
		s.add("fast", float64(i))
		s.add("slow", float64(10*i))
	}
	tl, err := tailOf(s.p50(), []samples{s}, 90)
	if err != nil {
		t.Fatal(err)
	}
	if want := s.p50() * 90.0 / 50; math.Abs(tl.Value-want) > 1e-9 || tl.Samples != 200 {
		t.Errorf("tail = %+v, want value %v from 200 samples", tl, want)
	}
	// A slow tail in one kind raises the figure although that kind is the
	// fast one.
	for i := 80; i < 100; i++ {
		s["fast"][i] *= 3
	}
	if tl2, _ := tailOf(s.p50(), []samples{s}, 90); tl2.Value <= tl.Value {
		t.Errorf("tail %v did not grow when one kind's tail did (was %v)", tl2.Value, tl.Value)
	}
}

func TestTailReadsEachSliceAgainstItsOwnMedians(t *testing.T) {
	// The second slice ran on a machine twice as slow: against its own
	// medians its samples spread as the first slice's do.
	fast, slow := oneKind(100), samples{}
	for _, x := range fast["k"] {
		slow.add("k", 2*x)
	}
	one, err := tailOf(50, []samples{fast}, 90)
	if err != nil {
		t.Fatal(err)
	}
	two, err := tailOf(50, []samples{fast, slow}, 90)
	if err != nil {
		t.Fatal(err)
	}
	if one.Value != 90 || two.Value != 90 || two.Samples != 200 {
		t.Errorf("tails %+v and %+v, want 90 from 100 and 200 samples", one, two)
	}
}
