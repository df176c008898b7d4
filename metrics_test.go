package headerbid

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"headerbid/internal/analysis"
)

// metricsTestWorld is shared across the metrics integration tests (world
// generation dominates their runtime).
func metricsTestWorld(t *testing.T) *World {
	t.Helper()
	cfg := DefaultWorldConfig(5)
	cfg.NumSites = 400
	return GenerateWorld(cfg)
}

func renderFigureReport(t *testing.T, w *World, workers int) []byte {
	t.Helper()
	fr := NewFigureReport()
	opts := DefaultCrawlConfig(5)
	opts.Days = 2
	_, err := NewExperiment(
		WithWorld(w),
		WithCrawlConfig(opts),
		WithWorkers(workers),
		WithMetrics(fr),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fr.Render(&buf)
	return buf.Bytes()
}

// TestFigureReportByteIdenticalAcrossWorkers is the metrics-API
// determinism gate: the full figure report must be byte-identical
// whether the crawl folded shards on 1, 2, 3 or 7 workers (several
// shard groupings, whatever the machine's CPU count), and identical to
// the report folded over the collected record slice.
func TestFigureReportByteIdenticalAcrossWorkers(t *testing.T) {
	w := metricsTestWorld(t)

	one := renderFigureReport(t, w, 1)
	for _, workers := range []int{2, 3, 7} {
		if many := renderFigureReport(t, w, workers); !bytes.Equal(one, many) {
			t.Fatalf("figure report differs between 1 and %d workers", workers)
		}
	}

	opts := DefaultCrawlConfig(5)
	opts.Days = 2
	var batch bytes.Buffer
	analysis.Fold(NewFigureReport(), crawlRecords(t, w, opts)).Render(&batch)
	if !bytes.Equal(one, batch.Bytes()) {
		t.Fatal("sharded figure report differs from the report folded over collected records")
	}
	if len(one) == 0 || !bytes.Contains(one, []byte("Figure 24")) {
		t.Fatal("figure report suspiciously incomplete")
	}
}

// TestWithMetricsMatchesMetricSink: folding a metric per-worker via
// WithMetrics and folding it on the ordered emit path via MetricSink
// must agree on a completed run.
func TestWithMetricsMatchesMetricSink(t *testing.T) {
	w := metricsTestWorld(t)

	sharded := analysis.NewTopPartners()
	ordered := analysis.NewTopPartners()
	sink := NewMetricSink(ordered)
	_, err := NewExperiment(
		WithWorld(w), WithSeed(5),
		WithMetrics(sharded), WithSink(sink),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sink.Metric() != Metric(ordered) {
		t.Fatal("MetricSink.Metric does not return the wrapped metric")
	}
	if !reflect.DeepEqual(sharded.Result(), ordered.Result()) {
		t.Fatal("sharded metric result differs from ordered MetricSink result")
	}
}

// TestResultsMetricsBag: Results.Metrics exposes the attached instances
// by attachment order and by name.
func TestResultsMetricsBag(t *testing.T) {
	w := metricsTestWorld(t)

	top := analysis.NewTopPartners()
	late := analysis.NewLateBids()
	res, err := NewExperiment(
		WithWorld(w), WithSeed(5),
		WithMetrics(top, late),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Len() != 2 {
		t.Fatalf("Metrics.Len() = %d, want 2", res.Metrics.Len())
	}
	if got := res.Metrics.All(); got[0] != Metric(top) || got[1] != Metric(late) {
		t.Fatal("Metrics.All() does not preserve attachment order/instances")
	}
	if res.Metrics.Get("top_partners") != Metric(top) {
		t.Fatal("Metrics.Get(top_partners) did not return the attached instance")
	}
	if res.Metrics.Get("nope") != nil {
		t.Fatal("Metrics.Get(unknown) should be nil")
	}
	// The merged instance holds the run's totals.
	if len(top.Result()) == 0 {
		t.Fatal("attached metric is empty after the run")
	}
	// Built-ins agree with the metric bag's view of the same stream.
	sum := res.Summary
	if sum.SitesCrawled != 400 {
		t.Fatalf("Summary.SitesCrawled = %d, want 400", sum.SitesCrawled)
	}
}

// TestCollectSinkMultiRunAndReset pins the CollectSink contract: records
// accumulate across runs until Reset.
func TestCollectSinkMultiRunAndReset(t *testing.T) {
	cfg := DefaultWorldConfig(9)
	cfg.NumSites = 60
	w := GenerateWorld(cfg)

	c := NewCollectSink()
	for i := 0; i < 2; i++ {
		if _, err := NewExperiment(WithWorld(w), WithSeed(9), WithSink(c)).Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(c.Records()); got != 120 {
		t.Fatalf("after two runs: %d records, want 120 (multi-run accumulation)", got)
	}
	c.Reset()
	if len(c.Records()) != 0 {
		t.Fatal("Reset did not clear collected records")
	}
	if _, err := NewExperiment(WithWorld(w), WithSeed(9), WithSink(c)).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := len(c.Records()); got != 60 {
		t.Fatalf("after Reset + one run: %d records, want 60", got)
	}
}
