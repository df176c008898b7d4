package analysis_test

import (
	"testing"

	"headerbid/internal/analysis"
	"headerbid/internal/crawler"
	"headerbid/internal/sitegen"
	"headerbid/internal/staticdet"
	"headerbid/internal/wayback"
)

func TestAdoptionOverYearsShape(t *testing.T) {
	a := wayback.NewArchive(1, 600)
	years := analysis.AdoptionOverYears(a, staticdet.New())
	if len(years) != len(wayback.Years) {
		t.Fatalf("years = %d", len(years))
	}
	// Paper's Figure 4 shape: ~10% early, rising to ~20% steady state.
	first, last := years[0], years[len(years)-1]
	if first.Year != 2014 || last.Year != 2019 {
		t.Fatalf("year ordering wrong: %v..%v", first.Year, last.Year)
	}
	if first.Rate < 0.06 || first.Rate > 0.15 {
		t.Errorf("2014 rate %.3f, want ≈0.10", first.Rate)
	}
	if last.Rate < 0.16 || last.Rate > 0.26 {
		t.Errorf("2019 rate %.3f, want ≈0.20", last.Rate)
	}
	if last.Rate <= first.Rate {
		t.Error("adoption did not grow")
	}
	// Static analysis tracks ground truth closely on archives.
	for _, y := range years {
		if diff := y.Rate - y.TrueRate; diff < -0.03 || diff > 0.03 {
			t.Errorf("year %d: detected %.3f vs truth %.3f", y.Year, y.Rate, y.TrueRate)
		}
	}
}

func TestAdoptionOverYearsNilDetectorDefaults(t *testing.T) {
	a := wayback.NewArchive(2, 100)
	years := analysis.AdoptionOverYears(a, nil)
	if len(years) == 0 {
		t.Fatal("nil detector not defaulted")
	}
}

func TestCompareWithWaterfall(t *testing.T) {
	cfg := sitegen.DefaultConfig(5)
	cfg.NumSites = 1200
	w := sitegen.Generate(cfg)
	recs := crawler.CrawlWorld(w, crawler.DefaultOptions(5))
	cmp := analysis.CompareWithWaterfall(w, recs, 5)

	if cmp.Sites < 100 {
		t.Fatalf("too few compared sites: %d", cmp.Sites)
	}
	// The paper's headline: HB is slower than waterfall, by up to 3x at
	// the median and much more in the tail.
	if cmp.MedianRatio <= 1.0 {
		t.Fatalf("HB/waterfall median ratio %.2f; HB must be slower", cmp.MedianRatio)
	}
	if cmp.MedianRatio > 3.5 {
		t.Fatalf("median ratio %.2f beyond the paper's 'up to 3x'", cmp.MedianRatio)
	}
	if cmp.P90Ratio < cmp.RatioMedian {
		t.Fatalf("tail ratio %.2f below median ratio %.2f", cmp.P90Ratio, cmp.RatioMedian)
	}
	if cmp.P90Ratio > 20 {
		t.Fatalf("p90 ratio %.2f beyond the paper's 'up to 15x'", cmp.P90Ratio)
	}
	// Waterfall leaves money on the table; HB does not (by construction).
	if cmp.RevenueLossMean < 0 {
		t.Fatalf("negative revenue loss: %v", cmp.RevenueLossMean)
	}
	// Determinism.
	cmp2 := analysis.CompareWithWaterfall(w, recs, 5)
	if cmp.MedianRatio != cmp2.MedianRatio {
		t.Fatal("comparison not deterministic")
	}
}
