package headerbid_test

import (
	"bytes"
	"context"
	"testing"

	headerbid "headerbid"
	"headerbid/internal/obs"
)

// traceBytesOf crawls the seed world with tracing on every visit and
// returns the Perfetto trace bytes plus the crawl's JSONL bytes.
func traceBytesOf(t *testing.T, workers int) (trace, jsonl []byte) {
	t.Helper()
	var tbuf, jbuf bytes.Buffer
	exp := headerbid.NewExperiment(
		headerbid.WithSeed(7),
		headerbid.WithSites(150),
		headerbid.WithWorkers(workers),
		headerbid.WithTrace(headerbid.TracePlan{}),
		headerbid.WithSink(headerbid.NewTraceSink(&tbuf), headerbid.NewJSONLSink(&jbuf)),
	)
	if _, err := exp.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	return tbuf.Bytes(), jbuf.Bytes()
}

// TestTraceBytesWorkerInvariant is the tracing half of the determinism
// wall: the Perfetto trace of a crawl is byte-identical whether 1, 2, 3
// or 7 workers ran it. Spans are recorded on the virtual timeline and
// emitted in site-rank order, so scheduling must leave no fingerprint.
// The worker counts are fixed, not NumCPU, so the comparison stays
// meaningful on small CI boxes — goroutines still interleave and
// complete out of order there.
func TestTraceBytesWorkerInvariant(t *testing.T) {
	trace1, jsonl1 := traceBytesOf(t, 1)
	if len(trace1) == 0 {
		t.Fatal("empty trace from single-worker crawl")
	}
	if err := obs.ValidateTrace(bytes.NewReader(trace1)); err != nil {
		t.Fatalf("single-worker trace invalid: %v", err)
	}
	for _, many := range []int{2, 3, 7} {
		traceN, jsonlN := traceBytesOf(t, many)
		if !bytes.Equal(trace1, traceN) {
			t.Errorf("trace bytes differ between workers=1 (%d bytes) and workers=%d (%d bytes)",
				len(trace1), many, len(traceN))
		}
		if !bytes.Equal(jsonl1, jsonlN) {
			t.Errorf("JSONL bytes differ between workers=1 and workers=%d", many)
		}
	}
}

// TestTracingLeavesCrawlOutputUntouched: switching tracing on must not
// perturb the crawl's record stream. The JSONL of a traced run is
// byte-identical to an untraced run of the same seed — the recorder
// observes the visit, it never participates in it.
func TestTracingLeavesCrawlOutputUntouched(t *testing.T) {
	run := func(traced bool) []byte {
		var jbuf bytes.Buffer
		opts := []headerbid.ExperimentOption{
			headerbid.WithSeed(7),
			headerbid.WithSites(150),
			headerbid.WithSink(headerbid.NewJSONLSink(&jbuf)),
		}
		if traced {
			opts = append(opts,
				headerbid.WithTrace(headerbid.TracePlan{}),
				headerbid.WithSink(headerbid.NewTraceSink(&bytes.Buffer{})))
		}
		exp := headerbid.NewExperiment(opts...)
		if _, err := exp.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return jbuf.Bytes()
	}
	plain := run(false)
	traced := run(true)
	if !bytes.Equal(plain, traced) {
		t.Errorf("tracing perturbed crawl output: %d vs %d JSONL bytes", len(plain), len(traced))
	}
}

// TestTelemetryAccountsForEveryVisit: the run-level registry's totals
// must agree with the crawl it watched — one Visits increment per
// emitted visit, traced visits counted exactly when a trace plan
// selected them.
func TestTelemetryAccountsForEveryVisit(t *testing.T) {
	reg := headerbid.NewTelemetry()
	var seen int
	count := headerbid.SinkFunc(func(headerbid.Visit) error { seen++; return nil })
	exp := headerbid.NewExperiment(
		headerbid.WithSeed(7),
		headerbid.WithSites(150),
		headerbid.WithTelemetry(reg),
		headerbid.WithTrace(headerbid.TracePlan{MaxSites: 9}),
		headerbid.WithSink(headerbid.NewTraceSink(&bytes.Buffer{}), count),
	)
	if _, err := exp.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	tot := reg.Totals()
	if got, want := tot.Visits, uint64(seen); got != want {
		t.Errorf("telemetry counted %d visits, sink saw %d", got, want)
	}
	if tot.TracedVisits != 9 {
		t.Errorf("TracedVisits = %d, want 9 (MaxSites)", tot.TracedVisits)
	}
	if tot.WireRequests == 0 || tot.WireBytesIn == 0 {
		t.Errorf("wire counters empty: requests=%d bytes_in=%d", tot.WireRequests, tot.WireBytesIn)
	}
}
