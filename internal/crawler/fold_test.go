package crawler

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"headerbid/internal/analysis"
	"headerbid/internal/analysis/metrictest"
	"headerbid/internal/dataset"
)

// visitLog is a test metric that records which visits it folded and how
// many shards its prototype handed out.
type visitLog struct {
	seen   map[string]int // domain/day -> folds
	shards *int
}

func newVisitLog() *visitLog { return &visitLog{seen: map[string]int{}, shards: new(int)} }

func (m *visitLog) Name() string { return "visit_log" }
func (m *visitLog) Add(r *dataset.SiteRecord) {
	m.seen[fmt.Sprintf("%s/%d", r.Domain, r.VisitDay)]++
}
func (m *visitLog) NewShard() analysis.Metric {
	*m.shards++
	return &visitLog{seen: map[string]int{}, shards: m.shards}
}
func (m *visitLog) Merge(other analysis.Metric) {
	for k, n := range other.(*visitLog).seen {
		m.seen[k] += n
	}
}
func (m *visitLog) Snapshot() any { return len(m.seen) }

// TestShardedFoldSeesEveryRecordOnce: CrawlStreamSharded must give every
// worker its own shard, fold each visit exactly once, and merge the
// shards back so the metric's multiset equals the emitted stream — also
// when the crawl stops early.
func TestShardedFoldSeesEveryRecordOnce(t *testing.T) {
	w := smallWorld(t, 150)
	opts := DefaultOptions(17)
	opts.Days = 2
	opts.Workers = 4

	log := newVisitLog()
	emitted := 0
	err := CrawlStreamSharded(context.Background(), w, opts,
		func(v Visit) error { emitted++; return nil }, []analysis.Metric{log})
	if err != nil {
		t.Fatal(err)
	}
	if *log.shards != opts.Workers {
		t.Fatalf("created %d shards, want one per worker (%d)", *log.shards, opts.Workers)
	}
	if len(log.seen) != emitted {
		t.Fatalf("folded %d distinct visits, emitted %d", len(log.seen), emitted)
	}
	for k, n := range log.seen {
		if n != 1 {
			t.Fatalf("visit %s folded %d times", k, n)
		}
	}

	stop := errors.New("stop")
	early := newVisitLog()
	emitted = 0
	err = CrawlStreamSharded(context.Background(), w, opts, func(v Visit) error {
		if emitted++; emitted == 20 {
			return stop
		}
		return nil
	}, []analysis.Metric{early})
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v, want the emit error", err)
	}
	if len(early.seen) < emitted {
		t.Fatalf("early exit merged %d visits, emitted %d", len(early.seen), emitted)
	}
}

// TestCrawlStreamNilFold: a crawl with no metrics (nil) must be
// unaffected by sharding.
func TestCrawlStreamNilFold(t *testing.T) {
	w := smallWorld(t, 40)
	opts := DefaultOptions(17)
	n := 0
	if err := CrawlStreamSharded(context.Background(), w, opts, func(v Visit) error { n++; return nil }, nil); err != nil {
		t.Fatal(err)
	}
	if n != 40 {
		t.Fatalf("emitted %d, want 40", n)
	}
}

// TestStatsMergeLaws: the crawl-stats metric obeys the Metric laws.
func TestStatsMergeLaws(t *testing.T) {
	metrictest.CheckLaws(t, func() analysis.Metric { return &Stats{} }, nil)
}
