package scenario

import (
	"testing"

	"headerbid/internal/analysis"
	"headerbid/internal/analysis/metrictest"
)

// TestVariantAggMergeLaws: the per-variant aggregate obeys the Metric
// laws, so a comparison cannot depend on how a crawl grouped visits into
// worker shards — the revenue total included.
func TestVariantAggMergeLaws(t *testing.T) {
	metrictest.CheckLaws(t, func() analysis.Metric { return newVariantAgg(nil) }, nil)
}
