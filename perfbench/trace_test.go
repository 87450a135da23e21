package main

import (
	"math"
	"testing"
	"time"
)

func sp(id, parent int, start, end int64) span {
	return span{Req: "r", ID: id, Parent: parent, Name: "s", Start: start, End: end}
}

func TestSelfTimeSubtractsNestedChildren(t *testing.T) {
	spans := []span{
		sp(1, 0, 0, 100),
		sp(2, 1, 10, 40),
		sp(3, 1, 50, 90),
		sp(4, 3, 60, 70),
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 30, 2: 30, 3: 30, 4: 10} {
		if self[id] != want {
			t.Errorf("self(%d) = %v, want %v", id, self[id], want)
		}
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	spans := []span{
		sp(1, 0, 0, 100),
		sp(2, 1, 10, 60),
		sp(3, 1, 40, 80),
		sp(4, 1, 90, 120), // runs past its parent: only 90–100 is covered
	}
	if got := selfTimes(spans)[1]; got != 20 {
		t.Errorf("self(1) = %v, want 20", got)
	}
}

func TestUnaccountedShare(t *testing.T) {
	spans := []span{
		sp(1, 0, 0, 100), // job: 70 accounted by its descendants
		sp(2, 1, 10, 40),
		sp(3, 1, 50, 90),
		sp(4, 3, 60, 70),
		sp(5, 0, 200, 300), // job with no children: wholly unaccounted
		{Req: "r", ID: 6, Name: "baseline", Start: 0, End: 1000},
	}
	for i := range spans[:5] {
		spans[i].Name = "job"
	}
	if got, want := unaccountedShare(spans, "job"), (30.0+100)/200; math.Abs(got-want) > 1e-12 {
		t.Errorf("unaccountedShare = %v, want %v", got, want)
	}
}

func TestTracerRecordsParentsAndFailures(t *testing.T) {
	tr := newTracer()
	err := tr.do("q", 0, "job", func(root int) error {
		return tr.do("q", root, "child", func(int) error { return errTest })
	})
	if err != errTest {
		t.Fatalf("do returned %v, want the callee's error", err)
	}
	s := tr.snapshot()
	if len(s) != 2 || s[1].Parent != s[0].ID || s[0].Parent != 0 || s[1].Req != "q" {
		t.Fatalf("spans = %+v", s)
	}
	if s[1].Start < s[0].Start || s[1].End > s[0].End || s[0].End < s[0].Start {
		t.Errorf("child %+v not inside parent %+v", s[1], s[0])
	}
}

type testError struct{}

func (testError) Error() string { return "test" }

var errTest error = testError{}
