package headerbid

import (
	"bytes"
	"context"
	"io"
	"testing"

	"headerbid/internal/analysis"
	"headerbid/internal/hb"
)

// The facade tests exercise the whole public workflow a downstream user
// follows: generate, crawl, summarize, persist, report, compare.

// crawlRecords runs one Experiment over w and collects every record —
// the in-memory dataset tests and benchmarks compare against.
func crawlRecords(tb testing.TB, w *World, cfg CrawlConfig, opts ...ExperimentOption) []*SiteRecord {
	tb.Helper()
	c := NewCollectSink()
	opts = append([]ExperimentOption{WithWorld(w), WithCrawlConfig(cfg), WithSink(c)}, opts...)
	if _, err := NewExperiment(opts...).Run(context.Background()); err != nil {
		tb.Fatal(err)
	}
	return c.Records()
}

// writeJSONL streams recs through a JSONL sink into w.
func writeJSONL(tb testing.TB, w io.Writer, recs []*SiteRecord) {
	tb.Helper()
	sink := NewJSONLSink(w)
	for _, r := range recs {
		if err := sink.Consume(Visit{Record: r}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		tb.Fatal(err)
	}
}

func smallCrawl(t *testing.T, sites int, seed int64) (*World, []*SiteRecord) {
	t.Helper()
	cfg := DefaultWorldConfig(seed)
	cfg.NumSites = sites
	w := GenerateWorld(cfg)
	return w, crawlRecords(t, w, DefaultCrawlConfig(seed))
}

func TestPublicWorkflow(t *testing.T) {
	w, recs := smallCrawl(t, 300, 2)
	if len(recs) != 300 {
		t.Fatalf("records = %d", len(recs))
	}
	sum := analysis.Fold(NewSummaryMetric(), recs).Summary()
	if sum.SitesCrawled != 300 || sum.SitesWithHB == 0 {
		t.Fatalf("summary = %+v", sum)
	}
	if sum.AdoptionRate() <= 0.05 || sum.AdoptionRate() >= 0.4 {
		t.Fatalf("adoption = %v", sum.AdoptionRate())
	}

	// Round-trip the dataset through the public serializers, folding
	// the full report as it streams back in.
	var buf bytes.Buffer
	writeJSONL(t, &buf, recs)
	fr := NewFigureReport()
	n := 0
	err := ReadDatasetStream(&buf, func(r *SiteRecord) error {
		n++
		fr.Add(r)
		return nil
	})
	if err != nil || n != len(recs) {
		t.Fatalf("round trip: n=%d err=%v", n, err)
	}
	var report bytes.Buffer
	fr.Render(&report)
	if report.Len() == 0 {
		t.Fatal("empty report")
	}

	// Waterfall comparison via the facade.
	cmp := CompareWithWaterfall(w, recs, 2)
	if cmp.Sites == 0 {
		t.Fatal("comparison saw no sites")
	}
}

func TestCrawlDeterministicViaFacade(t *testing.T) {
	_, a := smallCrawl(t, 150, 7)
	_, b := smallCrawl(t, 150, 7)
	for i := range a {
		if a[i].Domain != b[i].Domain || a[i].HB != b[i].HB ||
			a[i].TotalHBLatencyMS != b[i].TotalHBLatencyMS {
			t.Fatalf("crawl not reproducible at record %d", i)
		}
	}
}

func TestVisitSiteSinglePage(t *testing.T) {
	w, _ := smallCrawl(t, 100, 3)
	site := w.HBSites()[0]
	rec := VisitSite(w, site, 0, DefaultCrawlConfig(3))
	if !rec.HB {
		t.Fatalf("HB site not detected: %+v", rec)
	}
	if rec.Facet != site.Facet.Short() {
		t.Fatalf("facet = %s, ground truth %s", rec.Facet, site.Facet.Short())
	}
}

func TestPartnersRegistryExposed(t *testing.T) {
	reg := Partners()
	if reg.Len() != 84 {
		t.Fatalf("partners = %d", reg.Len())
	}
}

func TestAdoptionStudyViaFacade(t *testing.T) {
	a := NewArchive(5, 400)
	years := AdoptionOverYears(a)
	if len(years) != 6 {
		t.Fatalf("years = %d", len(years))
	}
	if years[0].Rate >= years[len(years)-1].Rate {
		t.Fatal("adoption did not grow 2014->2019")
	}
}

func TestFacetConstantsWired(t *testing.T) {
	if FacetClient != hb.FacetClient || FacetServer != hb.FacetServer ||
		FacetHybrid != hb.FacetHybrid || FacetUnknown != hb.FacetUnknown {
		t.Fatal("facet constants diverged from internal values")
	}
}

func TestCrawlWithProgressReportsCompletion(t *testing.T) {
	cfg := DefaultWorldConfig(9)
	cfg.NumSites = 80
	w := GenerateWorld(cfg)
	var last, total int
	crawlRecords(t, w, DefaultCrawlConfig(9), WithProgress(func(done, tot int) {
		last, total = done, tot
	}))
	if last != 80 || total != 80 {
		t.Fatalf("progress ended at %d/%d", last, total)
	}
}
