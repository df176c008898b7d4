package analysis_test

import (
	"context"
	"reflect"
	"testing"

	"headerbid/internal/analysis"
	"headerbid/internal/crawler"
	"headerbid/internal/dataset"
	"headerbid/internal/sitegen"
)

// TestLatencyAccumulatorMatchesBatch folds a real crawl on the
// crawler's worker shards and requires the result to be deep-equal to
// the fold over the collected record slice — markers, sample count and
// the full ECDF.
func TestLatencyAccumulatorMatchesBatch(t *testing.T) {
	cfg := sitegen.DefaultConfig(17)
	cfg.NumSites = 400
	w := sitegen.Generate(cfg)
	opts := crawler.DefaultOptions(17)
	opts.Workers = 3

	acc := analysis.NewLatencyAccumulator()
	var recs []*dataset.SiteRecord
	err := crawler.CrawlStreamSharded(context.Background(), w, opts, func(v crawler.Visit) error {
		recs = append(recs, v.Record)
		return nil
	}, []analysis.Metric{acc})
	if err != nil {
		t.Fatal(err)
	}
	got, want := acc.Result(), analysis.Fold(analysis.NewLatencyAccumulator(), recs).Result()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streaming CDF diverged:\n got %+v\nwant %+v", got, want)
	}
	if got.Sites == 0 {
		t.Fatal("no latency samples in a 400-site crawl")
	}
	if acc.Samples() != got.Sites {
		t.Fatalf("Samples() = %d, Sites = %d", acc.Samples(), got.Sites)
	}
}

// TestLatencyAccumulatorFilters: non-HB and zero-latency records must not
// contribute samples.
func TestLatencyAccumulatorFilters(t *testing.T) {
	acc := analysis.NewLatencyAccumulator()
	acc.Add(&dataset.SiteRecord{Domain: "a", HB: false, TotalHBLatencyMS: 500})
	acc.Add(&dataset.SiteRecord{Domain: "b", HB: true, TotalHBLatencyMS: 0})
	if acc.Samples() != 0 {
		t.Fatalf("samples = %d, want 0", acc.Samples())
	}
	acc.Add(&dataset.SiteRecord{Domain: "c", HB: true, TotalHBLatencyMS: 750})
	res := acc.Result()
	if res.Sites != 1 || res.MedianMS != 750 {
		t.Fatalf("result = %+v", res)
	}
}
