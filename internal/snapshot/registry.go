package snapshot

import (
	"sort"

	"headerbid/internal/analysis"
	"headerbid/internal/partners"
	"headerbid/internal/report"
)

// Codec is the serializable-metric contract shard files are built from:
// a Metric whose accumulator state round-trips byte-exactly through the
// wire format. See analysis.Codec for the full contract.
type Codec = analysis.Codec

// prototypes holds one empty instance of every metric a shard file may
// carry, keyed by its own Name(). New builds each fresh accumulator with
// the prototype's NewShard, so the registry repeats neither names nor
// constructors. Registry-backed metrics get partners.Default(), the one
// registry the figure pipeline uses.
//
// A name, once shipped in a shard file, is part of the snapshot format:
// renaming or removing one is a format change and must bump
// FormatVersion.
var prototypes = byName(
	analysis.NewSummary(),
	analysis.NewAdoptionByRankBand(),
	analysis.NewFacetBreakdown(),
	analysis.NewTopPartners(),
	analysis.NewUniquePartners(),
	analysis.NewPartnersPerSite(),
	analysis.NewPartnerCombos(),
	analysis.NewPartnersPerFacet(),
	analysis.NewLatencyAccumulator(),
	analysis.NewLatencyVsRank(),
	analysis.NewPartnerLatencies(),
	analysis.NewLatencyVsPartnerCount(),
	analysis.NewLatencyVsPopularity(partners.Default()),
	analysis.NewLateBids(),
	analysis.NewLateBidsPerPartner(),
	analysis.NewSlotsPerSite(),
	analysis.NewLatencyVsSlots(),
	analysis.NewSlotSizes(),
	analysis.NewPriceCDF(),
	analysis.NewPricePerSize(),
	analysis.NewPriceVsPopularity(partners.Default()),
	analysis.NewTraffic(),
	analysis.NewDegradation(),
	report.NewFigures(partners.Default()),
)

func byName(ms ...Codec) map[string]Codec {
	out := make(map[string]Codec, len(ms))
	for _, m := range ms {
		out[m.Name()] = m
	}
	return out
}

// New returns an empty accumulator for a registered metric name, ready
// for DecodeState, or false for a name this build does not know.
func New(name string) (Codec, bool) {
	p, ok := prototypes[name]
	if !ok {
		return nil, false
	}
	return p.NewShard().(Codec), true
}

// Names returns every registered metric name in sorted order.
func Names() []string {
	out := make([]string, 0, len(prototypes))
	for n := range prototypes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
