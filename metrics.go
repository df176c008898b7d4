package headerbid

import (
	"headerbid/internal/analysis"
)

// Per-figure metric surface: every dataset-derived table and figure of
// the paper as an individually attachable Metric, re-exported from
// internal/analysis so external consumers can construct them (internal
// packages are unimportable outside this module). Attach any of these
// with WithMetrics, read them back via their typed Result methods or
// Results.Metrics; NewFigureReport bundles all of them plus rendering.
type (
	// SummaryMetric is the Table-1 roll-up (name "summary").
	SummaryMetric = analysis.SummaryMetric
	// AdoptionByRankBandMetric is §3.2 adoption per rank band
	// (name "adoption_by_rank_band").
	AdoptionByRankBandMetric = analysis.AdoptionByRankBandMetric
	// FacetBreakdownMetric is the §4.6 facet shares (name "facet_breakdown").
	FacetBreakdownMetric = analysis.FacetBreakdownMetric
	// TopPartnersMetric is Figure 8 (name "top_partners").
	TopPartnersMetric = analysis.TopPartnersMetric
	// UniquePartnersMetric counts distinct partners (name "unique_partners").
	UniquePartnersMetric = analysis.UniquePartnersMetric
	// PartnersPerSiteMetric is Figure 9 (name "partners_per_site").
	PartnersPerSiteMetric = analysis.PartnersPerSiteMetric
	// PartnerCombosMetric is Figure 10 (name "partner_combos").
	PartnerCombosMetric = analysis.PartnerCombosMetric
	// PartnersPerFacetMetric is Figure 11 (name "partners_per_facet").
	PartnersPerFacetMetric = analysis.PartnersPerFacetMetric
	// LatencyAccumulator is the Figure-12 latency CDF (name "latency_cdf").
	LatencyAccumulator = analysis.LatencyAccumulator
	// LatencyVsRankMetric is Figure 13 (name "latency_vs_rank").
	LatencyVsRankMetric = analysis.LatencyVsRankMetric
	// PartnerLatenciesMetric backs Figures 14 and 16 (name
	// "partner_latencies"); its Extremes method computes Figure 14.
	PartnerLatenciesMetric = analysis.PartnerLatenciesMetric
	// LatencyVsPartnerCountMetric is Figure 15 (name "latency_vs_partner_count").
	LatencyVsPartnerCountMetric = analysis.LatencyVsPartnerCountMetric
	// LatencyVsPopularityMetric is Figure 16 (name "latency_vs_popularity").
	LatencyVsPopularityMetric = analysis.LatencyVsPopularityMetric
	// LateBidsMetric is Figure 17 (name "late_bids").
	LateBidsMetric = analysis.LateBidsMetric
	// LateBidsPerPartnerMetric is Figure 18 (name "late_bids_per_partner").
	LateBidsPerPartnerMetric = analysis.LateBidsPerPartnerMetric
	// SlotsPerSiteMetric is Figure 19 (name "slots_per_site").
	SlotsPerSiteMetric = analysis.SlotsPerSiteMetric
	// LatencyVsSlotsMetric is Figure 20 (name "latency_vs_slots").
	LatencyVsSlotsMetric = analysis.LatencyVsSlotsMetric
	// SlotSizesMetric is Figure 21 (name "slot_sizes").
	SlotSizesMetric = analysis.SlotSizesMetric
	// PriceCDFMetric is Figure 22 (name "price_cdf").
	PriceCDFMetric = analysis.PriceCDFMetric
	// PricePerSizeMetric is Figure 23 (name "price_per_size").
	PricePerSizeMetric = analysis.PricePerSizeMetric
	// PriceVsPopularityMetric is Figure 24 (name "price_vs_popularity").
	PriceVsPopularityMetric = analysis.PriceVsPopularityMetric
	// TrafficMetric is the §7.3 overhead summary (name "traffic").
	TrafficMetric = analysis.TrafficMetric
	// DegradationMetric summarizes failure-regime degradation: partner
	// error rates, retries, abandonment, quarantine tally (name
	// "degradation"). All-zero on a fault-free crawl.
	DegradationMetric = analysis.DegradationMetric
	// DegradationResult is DegradationMetric's snapshot type.
	DegradationResult = analysis.DegradationResult
)

// NewSummaryMetric returns an empty Table-1 summary metric.
func NewSummaryMetric() *SummaryMetric { return analysis.NewSummary() }

// NewAdoptionByRankBand returns an empty §3.2 rank-band adoption metric.
func NewAdoptionByRankBand() *AdoptionByRankBandMetric { return analysis.NewAdoptionByRankBand() }

// NewFacetBreakdown returns an empty §4.6 facet-share metric.
func NewFacetBreakdown() *FacetBreakdownMetric { return analysis.NewFacetBreakdown() }

// NewTopPartners returns an empty Figure-8 metric (the 12 partners on
// the most HB sites).
func NewTopPartners() *TopPartnersMetric { return analysis.NewTopPartners() }

// NewUniquePartners returns an empty distinct-partner counter.
func NewUniquePartners() *UniquePartnersMetric { return analysis.NewUniquePartners() }

// NewPartnersPerSite returns an empty Figure-9 metric.
func NewPartnersPerSite() *PartnersPerSiteMetric { return analysis.NewPartnersPerSite() }

// NewPartnerCombos returns an empty Figure-10 metric (the 15 most common
// partner combinations).
func NewPartnerCombos() *PartnerCombosMetric { return analysis.NewPartnerCombos() }

// NewPartnersPerFacet returns an empty Figure-11 metric (the 10 partners
// with the most bids per facet).
func NewPartnersPerFacet() *PartnersPerFacetMetric { return analysis.NewPartnersPerFacet() }

// NewLatencyAccumulator returns an empty Figure-12 latency CDF metric.
func NewLatencyAccumulator() *LatencyAccumulator { return analysis.NewLatencyAccumulator() }

// NewLatencyVsRank returns an empty Figure-13 metric (site-rank bins of
// 500).
func NewLatencyVsRank() *LatencyVsRankMetric { return analysis.NewLatencyVsRank() }

// NewPartnerLatencies returns an empty per-partner latency metric
// (Figures 14 and 16 raw material).
func NewPartnerLatencies() *PartnerLatenciesMetric { return analysis.NewPartnerLatencies() }

// NewLatencyVsPartnerCount returns an empty Figure-15 metric (partner
// counts above 15 are clamped to 15).
func NewLatencyVsPartnerCount() *LatencyVsPartnerCountMetric {
	return analysis.NewLatencyVsPartnerCount()
}

// NewLatencyVsPopularity returns an empty Figure-16 metric over reg
// (popularity-rank bins of 10).
func NewLatencyVsPopularity(reg *Registry) *LatencyVsPopularityMetric {
	return analysis.NewLatencyVsPopularity(reg)
}

// NewLateBids returns an empty Figure-17 metric.
func NewLateBids() *LateBidsMetric { return analysis.NewLateBids() }

// NewLateBidsPerPartner returns an empty Figure-18 metric (the 25
// partners with the highest late-bid share, among those with at least 3
// client-side bids).
func NewLateBidsPerPartner() *LateBidsPerPartnerMetric { return analysis.NewLateBidsPerPartner() }

// NewSlotsPerSite returns an empty Figure-19 metric.
func NewSlotsPerSite() *SlotsPerSiteMetric { return analysis.NewSlotsPerSite() }

// NewLatencyVsSlots returns an empty Figure-20 metric (slot counts above
// 15 are clamped to 15).
func NewLatencyVsSlots() *LatencyVsSlotsMetric { return analysis.NewLatencyVsSlots() }

// NewSlotSizes returns an empty Figure-21 metric (the 10 most auctioned
// slot dimensions per facet).
func NewSlotSizes() *SlotSizesMetric { return analysis.NewSlotSizes() }

// NewPriceCDF returns an empty Figure-22 metric.
func NewPriceCDF() *PriceCDFMetric { return analysis.NewPriceCDF() }

// NewPricePerSize returns an empty Figure-23 metric (slot dimensions
// with fewer than 5 bids are left out).
func NewPricePerSize() *PricePerSizeMetric { return analysis.NewPricePerSize() }

// NewPriceVsPopularity returns an empty Figure-24 metric over reg
// (popularity-rank bins of 10).
func NewPriceVsPopularity(reg *Registry) *PriceVsPopularityMetric {
	return analysis.NewPriceVsPopularity(reg)
}

// NewTraffic returns an empty §7.3 overhead metric.
func NewTraffic() *TrafficMetric { return analysis.NewTraffic() }

// NewDegradation returns an empty failure-degradation metric.
func NewDegradation() *DegradationMetric { return analysis.NewDegradation() }
