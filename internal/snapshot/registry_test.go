package snapshot_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"

	"headerbid/internal/analysis"
	"headerbid/internal/partners"
	"headerbid/internal/report"
	"headerbid/internal/snapshot"
)

// facadeConstructors instantiates every facade-exported metric
// constructor (metrics.go New* plus NewFigureReport), keyed by
// constructor name. Each entry's type is snapshot.Codec — so adding a
// facade constructor whose metric lacks EncodeState/DecodeState fails
// to compile here, and TestEveryFacadeConstructorRegistered below fails
// until it also appears in this table and the snapshot registry.
var facadeConstructors = map[string]snapshot.Codec{
	"NewSummaryMetric":         analysis.NewSummary(),
	"NewAdoptionByRankBand":    analysis.NewAdoptionByRankBand(),
	"NewFacetBreakdown":        analysis.NewFacetBreakdown(),
	"NewTopPartners":           analysis.NewTopPartners(),
	"NewUniquePartners":        analysis.NewUniquePartners(),
	"NewPartnersPerSite":       analysis.NewPartnersPerSite(),
	"NewPartnerCombos":         analysis.NewPartnerCombos(),
	"NewPartnersPerFacet":      analysis.NewPartnersPerFacet(),
	"NewLatencyAccumulator":    analysis.NewLatencyAccumulator(),
	"NewLatencyVsRank":         analysis.NewLatencyVsRank(),
	"NewPartnerLatencies":      analysis.NewPartnerLatencies(),
	"NewLatencyVsPartnerCount": analysis.NewLatencyVsPartnerCount(),
	"NewLatencyVsPopularity":   analysis.NewLatencyVsPopularity(partners.Default()),
	"NewLateBids":              analysis.NewLateBids(),
	"NewLateBidsPerPartner":    analysis.NewLateBidsPerPartner(),
	"NewSlotsPerSite":          analysis.NewSlotsPerSite(),
	"NewLatencyVsSlots":        analysis.NewLatencyVsSlots(),
	"NewSlotSizes":             analysis.NewSlotSizes(),
	"NewPriceCDF":              analysis.NewPriceCDF(),
	"NewPricePerSize":          analysis.NewPricePerSize(),
	"NewPriceVsPopularity":     analysis.NewPriceVsPopularity(partners.Default()),
	"NewTraffic":               analysis.NewTraffic(),
	"NewDegradation":           analysis.NewDegradation(),
	"NewFigureReport":          report.NewFigures(partners.Default()),
}

// TestEveryFacadeConstructorRegistered parses the facade source and
// asserts that every exported metric constructor it declares is (a)
// present in facadeConstructors above and (b) registered in the
// snapshot registry under its stable Name(), producing the same
// concrete type. This is the tripwire that keeps the shard-file format
// complete: a new facade metric cannot ship without a snapshot codec
// and registry entry.
func TestEveryFacadeConstructorRegistered(t *testing.T) {
	declared := facadeNewFuncs(t, "../../metrics.go")
	declared = append(declared, "NewFigureReport") // lives in headerbid.go

	seen := make(map[string]bool, len(declared))
	for _, fn := range declared {
		if seen[fn] {
			t.Errorf("constructor %s declared twice", fn)
		}
		seen[fn] = true
		m, ok := facadeConstructors[fn]
		if !ok {
			t.Errorf("facade constructor %s missing from facadeConstructors — give its metric a codec and register it", fn)
			continue
		}
		name := m.Name()
		got, ok := snapshot.New(name)
		if !ok {
			t.Errorf("%s's metric %q not in the snapshot registry", fn, name)
			continue
		}
		if rt, gt := reflect.TypeOf(m), reflect.TypeOf(got); rt != gt {
			t.Errorf("registry builds %v for %q, facade constructor %s builds %v", gt, name, fn, rt)
		}
	}
	for fn := range facadeConstructors {
		if !seen[fn] {
			t.Errorf("facadeConstructors entry %s has no matching facade declaration", fn)
		}
	}
	// And the reverse direction: every registered name must decode to a
	// type some facade constructor produces (figure_report included), so
	// the registry carries no dead names.
	byType := make(map[reflect.Type]bool, len(facadeConstructors))
	for _, m := range facadeConstructors {
		byType[reflect.TypeOf(m)] = true
	}
	for _, name := range snapshot.Names() {
		m, _ := snapshot.New(name)
		if !byType[reflect.TypeOf(m)] {
			t.Errorf("registry name %q builds %v, which no facade constructor produces", name, reflect.TypeOf(m))
		}
	}
}

// facadeNewFuncs returns the exported top-level New* function names
// declared in one facade source file, excluding ones whose results are
// not metrics (sinks, archives, experiments).
func facadeNewFuncs(t *testing.T, path string) []string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parsing %s: %v", path, err)
	}
	var out []string
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Recv != nil || !fd.Name.IsExported() || !strings.HasPrefix(fd.Name.Name, "New") {
			continue
		}
		out = append(out, fd.Name.Name)
	}
	if len(out) == 0 {
		t.Fatalf("no New* constructors found in %s — wrong path?", path)
	}
	return out
}
