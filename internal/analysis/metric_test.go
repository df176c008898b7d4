package analysis_test

import (
	"bytes"
	"reflect"
	"testing"

	"headerbid/internal/analysis"
	"headerbid/internal/analysis/metrictest"
	"headerbid/internal/dataset"
	"headerbid/internal/partners"
)

// metricCase names one instance of every analysis metric.
type metricCase struct {
	name   string
	metric func() analysis.Metric
}

func metricCases() []metricCase {
	reg := partners.Default()
	return []metricCase{
		{"summary", func() analysis.Metric { return analysis.NewSummary() }},
		{"adoption_by_rank_band", func() analysis.Metric { return analysis.NewAdoptionByRankBand() }},
		{"facet_breakdown", func() analysis.Metric { return analysis.NewFacetBreakdown() }},
		{"top_partners", func() analysis.Metric { return analysis.NewTopPartners() }},
		{"unique_partners", func() analysis.Metric { return analysis.NewUniquePartners() }},
		{"partners_per_site", func() analysis.Metric { return analysis.NewPartnersPerSite() }},
		{"partner_combos", func() analysis.Metric { return analysis.NewPartnerCombos() }},
		{"partners_per_facet", func() analysis.Metric { return analysis.NewPartnersPerFacet() }},
		{"latency_cdf", func() analysis.Metric { return analysis.NewLatencyAccumulator() }},
		{"latency_vs_rank", func() analysis.Metric { return analysis.NewLatencyVsRank() }},
		{"partner_latencies", func() analysis.Metric { return analysis.NewPartnerLatencies() }},
		{"latency_vs_partner_count", func() analysis.Metric { return analysis.NewLatencyVsPartnerCount() }},
		{"latency_vs_popularity", func() analysis.Metric { return analysis.NewLatencyVsPopularity(reg) }},
		{"late_bids", func() analysis.Metric { return analysis.NewLateBids() }},
		{"late_bids_per_partner", func() analysis.Metric { return analysis.NewLateBidsPerPartner() }},
		{"slots_per_site", func() analysis.Metric { return analysis.NewSlotsPerSite() }},
		{"latency_vs_slots", func() analysis.Metric { return analysis.NewLatencyVsSlots() }},
		{"slot_sizes", func() analysis.Metric { return analysis.NewSlotSizes() }},
		{"price_cdf", func() analysis.Metric { return analysis.NewPriceCDF() }},
		{"price_per_size", func() analysis.Metric { return analysis.NewPricePerSize() }},
		{"price_vs_popularity", func() analysis.Metric { return analysis.NewPriceVsPopularity(reg) }},
		{"traffic", func() analysis.Metric { return analysis.NewTraffic() }},
		{"degradation", func() analysis.Metric { return analysis.NewDegradation() }},
	}
}

// TestMetricStreamingMatchesBatch: every metric must carry its case
// name, and folding a dataset streamed back from JSONL (the hbreport
// ingest path) must reproduce the fold over the in-memory records it
// was written from — the codec must keep every field a metric reads.
func TestMetricStreamingMatchesBatch(t *testing.T) {
	recs := metrictest.Records(1)
	var buf bytes.Buffer
	w := dataset.NewWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range metricCases() {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.metric()
			if m.Name() != tc.name {
				t.Errorf("Name() = %q, want %q", m.Name(), tc.name)
			}
			err := dataset.ReadStream(bytes.NewReader(buf.Bytes()), func(r *dataset.SiteRecord) error {
				m.Add(r)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := m.Snapshot(), analysis.Fold(tc.metric(), recs).Snapshot(); !reflect.DeepEqual(got, want) {
				t.Errorf("streamed result diverged from batch:\ngot  %#v\nwant %#v", got, want)
			}
		})
	}
}

// TestMetricMergeLaws: splitting the stream across shards (as the crawl
// worker pool does) and merging them — in arbitrary permutations and
// arbitrary groupings — must be result-identical to a single in-order
// accumulation, for every metric.
func TestMetricMergeLaws(t *testing.T) {
	for _, tc := range metricCases() {
		t.Run(tc.name, func(t *testing.T) {
			metrictest.CheckLaws(t, tc.metric, nil)
		})
	}
}

// TestMetricMergeRejectsForeignKind: merging a different metric kind is
// a programming error and must panic.
func TestMetricMergeRejectsForeignKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("merging a foreign metric kind did not panic")
		}
	}()
	analysis.NewLateBids().Merge(analysis.NewPriceCDF())
}

// TestPartnerCombosKeepsLiteralSlugs: combo membership must come from
// the retained slug slices, never from re-splitting the joined key — a
// slug containing the join separator must survive intact.
func TestPartnerCombosKeepsLiteralSlugs(t *testing.T) {
	m := analysis.NewPartnerCombos()
	m.Add(&dataset.SiteRecord{Domain: "x.example", HB: true, Partners: []string{"c", "a+b"}})
	res := m.Result()
	if len(res) != 1 {
		t.Fatalf("got %d combos, want 1", len(res))
	}
	if got := res[0].Combo; len(got) != 2 || got[0] != "a+b" || got[1] != "c" {
		t.Fatalf("combo members = %v, want [a+b c]", got)
	}
}

// TestExtremesMatchesBatchOverShards pins the Figure-14 method on the
// merged partner-latency metric to the one over a single in-order fold.
func TestExtremesMatchesBatchOverShards(t *testing.T) {
	recs := metrictest.Records(3)
	reg := partners.Default()
	a, b := analysis.NewPartnerLatencies(), analysis.NewPartnerLatencies()
	for i, r := range recs {
		if i%2 == 0 {
			a.Add(r)
		} else {
			b.Add(r)
		}
	}
	a.Merge(b)
	if got, want := a.Extremes(reg, 10, 5), analysis.Fold(analysis.NewPartnerLatencies(), recs).Extremes(reg, 10, 5); !reflect.DeepEqual(got, want) {
		t.Errorf("sharded Extremes diverged from batch")
	}
}
