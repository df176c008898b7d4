package main

import (
	"math"
	"runtime/metrics"
	"testing"

	"headerbid"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
		{5000000, 99.99, true},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok && float64(c.n)*(1-p/100) < 10-1e-9 {
			t.Errorf("n=%d: p%v leaves fewer than 10 samples beyond it", c.n, p)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {10, 1}, {50, 5}, {51, 6}, {90, 9}, {99, 10}, {100, 10}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(p%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of no samples should be 0")
	}
}

func TestMedianAndSummarize(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	s := summarize(xs)
	if s.N != 100 || s.Median != 50.5 || s.TailP != 90 || s.Tail != 90 {
		t.Errorf("summarize = %+v", s)
	}
	if xs[0] != 100 {
		t.Error("summarize reordered its input")
	}
	if s := summarize(xs[:5]); s.TailP != 0 || s.N != 5 {
		t.Errorf("5 samples must report no tail percentile: %+v", s)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},  // overlaps 3
		{ID: 3, Parent: 1, Start: 20, End: 40},  // union of 2,3 = [10,40)
		{ID: 4, Parent: 1, Start: 90, End: 120}, // clipped to [90,100)
		{ID: 5, Parent: 2, Start: 12, End: 28},  // grandchild: already inside 2
		{ID: 6, Parent: 1, Start: 50, End: 50},  // empty
	}
	if got := selfNS(spans, 1); got != 100-30-10 {
		t.Errorf("self(1) = %d, want 60", got)
	}
	if got := selfNS(spans, 2); got != 20-16 {
		t.Errorf("self(2) = %d, want 4", got)
	}
	if got := selfNS(spans, 3); got != 20 {
		t.Errorf("self of a leaf = %d, want its duration 20", got)
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	ran := false
	tr.do(0, "x", func(id int) { ran = id == 0 })
	if !ran || tr.now() != 0 || tr.named("x") != nil || tr.meanMS("x") != 0 {
		t.Error("nil tracer must run the body and record nothing")
	}
}

func TestHistDeltaQuantile(t *testing.T) {
	buckets := []float64{0, 1, 2, 3, math.Inf(1)}
	a := &metrics.Float64Histogram{Buckets: buckets, Counts: []uint64{5, 0, 0, 0}}
	b := &metrics.Float64Histogram{Buckets: buckets, Counts: []uint64{5, 90, 9, 1}}
	if got := histDeltaQuantile(a, b, 0.5); math.Abs(got-(1+50.0/90)) > 1e-12 {
		t.Errorf("p50 = %v, want 50/90 of the way through bucket [1,2)", got)
	}
	if got := histDeltaQuantile(a, b, 0.99); got != 3 {
		t.Errorf("p99 = %v, want the top of bucket [2,3)", got)
	}
	if got := histDeltaQuantile(a, b, 1); got != 3 {
		t.Errorf("p100 in the open bucket = %v, want its lower edge 3", got)
	}
	if got := histDeltaQuantile(b, b, 0.99); got != 0 {
		t.Errorf("no new samples = %v, want 0", got)
	}
}

// TestVisitProbeSplitsVisitFoldHandoff drives the probes the way a crawl
// worker does: a visit runs from its hook to the start probe, the fold
// from the start probe to the end probe, and the hand-off from the end
// of one fold to the next visit's hook on the same day.
func TestVisitProbeSplitsVisitFoldHandoff(t *testing.T) {
	tr := newTracer("test")
	starts := newVisitStarts(tr)
	p := newProbeSet(tr, 0, starts)
	start, end := p.metrics()
	s, e := start.NewShard(), end.NewShard()
	for rank := 1; rank <= 2; rank++ {
		site := &headerbid.Site{Rank: rank}
		starts.hook(nil, site, 0)
		rec := &headerbid.SiteRecord{Rank: rank, VisitDay: 0}
		s.Add(rec)
		e.Add(rec)
	}
	l := p.lanes[0]
	if len(l.visits) != 2 || len(l.folds) != 2 || len(l.handoffs) != 1 || p.unpaired() != 0 {
		t.Fatalf("visits=%d folds=%d handoffs=%d unpaired=%d", len(l.visits), len(l.folds), len(l.handoffs), p.unpaired())
	}
	if foldEnd := l.visits[0].end + l.folds[0]; l.handoffs[0] != l.visits[1].start-foldEnd {
		t.Errorf("hand-off %d, want next start - fold end = %d", l.handoffs[0], l.visits[1].start-foldEnd)
	}
	for _, v := range l.visits {
		if v.end < v.start {
			t.Errorf("visit %+v ends before it starts", v)
		}
	}
	// A record whose hook was not seen is counted, not timed.
	s.Add(&headerbid.SiteRecord{Rank: 9})
	if p.unpaired() != 1 || len(l.visits) != 2 {
		t.Errorf("unpaired=%d visits=%d", p.unpaired(), len(l.visits))
	}
}

// TestVisitStartsFIFO checks that open visits of one key pair oldest
// first, as concurrent sweep variants visiting the same site need.
func TestVisitStartsFIFO(t *testing.T) {
	v := newVisitStarts(newTracer("test"))
	site := &headerbid.Site{Rank: 4}
	v.hook(nil, site, 1)
	v.hook(nil, site, 1)
	a, okA := v.take(1, 4)
	b, okB := v.take(1, 4)
	_, okC := v.take(1, 4)
	if !okA || !okB || okC || a > b || len(v.open) != 0 {
		t.Errorf("a=%d ok=%v b=%d ok=%v third ok=%v open=%d", a, okA, b, okB, okC, len(v.open))
	}
}
