package crawler

import (
	"context"
	"errors"
	"testing"
	"time"

	"headerbid/internal/dataset"
	"headerbid/internal/sitegen"
)

// TestStreamMatchesBatch: CrawlStreamSharded must emit exactly the records
// CrawlWorld returns, in the same order, regardless of worker scheduling.
func TestStreamMatchesBatch(t *testing.T) {
	w := smallWorld(t, 200)
	opts := DefaultOptions(13)
	opts.Days = 2

	batch := CrawlWorld(w, opts)

	var streamed []string
	var lastDone, lastTotal int
	err := CrawlStreamSharded(context.Background(), w, opts, func(v Visit) error {
		streamed = append(streamed, v.Record.Domain)
		if v.Day == 0 {
			lastDone, lastTotal = v.Done, v.Total
		}
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(batch) {
		t.Fatalf("streamed %d records, batch %d", len(streamed), len(batch))
	}
	for i, r := range batch {
		if streamed[i] != r.Domain {
			t.Fatalf("order diverged at %d: stream=%s batch=%s", i, streamed[i], r.Domain)
		}
	}
	if lastDone != 200 || lastTotal != 200 {
		t.Fatalf("day-0 progress ended at %d/%d", lastDone, lastTotal)
	}
}

// TestStreamCancellation: a cancelled context must stop the crawl
// promptly and surface ctx.Err().
func TestStreamCancellation(t *testing.T) {
	w := smallWorld(t, 400)
	ctx, cancel := context.WithCancel(context.Background())

	emitted := 0
	start := time.Now()
	err := CrawlStreamSharded(ctx, w, DefaultOptions(5), func(v Visit) error {
		emitted++
		if emitted == 10 {
			cancel()
		}
		return nil
	}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if emitted >= 400 {
		t.Fatalf("crawl ran to completion despite cancellation (%d emitted)", emitted)
	}
	if d := time.Since(start); d > 20*time.Second {
		t.Fatalf("cancellation took %s; should stop promptly", d)
	}
}

// TestStreamEmitErrorAborts: an emit error must abort the crawl and be
// returned verbatim.
func TestStreamEmitErrorAborts(t *testing.T) {
	w := smallWorld(t, 150)
	sentinel := errors.New("sink full")
	emitted := 0
	err := CrawlStreamSharded(context.Background(), w, DefaultOptions(5), func(v Visit) error {
		emitted++
		if emitted == 5 {
			return sentinel
		}
		return nil
	}, nil)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if emitted != 5 {
		t.Fatalf("emit called %d times after error", emitted)
	}
}

// TestStreamFilterAndFirstDay: Filter restricts the job list; FirstDay
// offsets the calendar and must match a direct VisitSimulated.
func TestStreamFilterAndFirstDay(t *testing.T) {
	w := smallWorld(t, 120)
	opts := DefaultOptions(7)
	target := w.HBSites()[0]
	opts.Filter = func(s *sitegen.Site) bool { return s.Domain == target.Domain }
	opts.FirstDay = 3

	var got []*dataset.SiteRecord
	err := CrawlStreamSharded(context.Background(), w, opts, func(v Visit) error {
		got = append(got, v.Record)
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Domain != target.Domain || got[0].VisitDay != 3 {
		t.Fatalf("filtered crawl = %+v", got)
	}
	want := VisitSimulated(w, target, 3, opts)
	if got[0].TotalHBLatencyMS != want.TotalHBLatencyMS || got[0].HB != want.HB {
		t.Fatalf("filtered visit diverged from VisitSimulated: %+v vs %+v", got[0], want)
	}
}
