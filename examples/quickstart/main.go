// Quickstart: the streaming Experiment pipeline end to end — generate a
// small synthetic web, crawl it with HBDetector attached, watch HB sites
// stream out of the pipeline as their visits complete, aggregate a
// figure-level metric while the crawl runs, then drill into one site
// with the single-page entry point (the workflow the paper ships as a
// browser extension).
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"headerbid"
)

func main() {
	log.SetFlags(0)

	// One entry point, composable options, pluggable outputs: print each
	// HB site the moment its visit completes (a custom SinkFunc), while
	// the run accumulates Table-1 numbers incrementally and a streaming
	// Metric (Figure 8, folded per worker off the emit path) tallies
	// partner coverage.
	topPartners := headerbid.NewTopPartners()
	var firstHybrid *headerbid.SiteRecord
	exp := headerbid.NewExperiment(
		headerbid.WithSites(200),
		headerbid.WithSeed(7),
		headerbid.WithMetrics(topPartners),
		headerbid.WithSink(headerbid.SinkFunc(func(v headerbid.Visit) error {
			r := v.Record
			if r.HB {
				fmt.Printf("  [%3d/%3d] %-20s facet=%-7s partners=%d latency=%4.0fms\n",
					v.Done, v.Total, r.Domain, r.Facet, len(r.Partners), r.TotalHBLatencyMS)
				if firstHybrid == nil && r.Facet == "hybrid" {
					firstHybrid = r
				}
			}
			return nil
		})),
	)

	fmt.Println("streaming crawl of a 200-site world (HB sites as they complete):")
	res, err := exp.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ncrawled %d sites in %s: %d HB (%.1f%%), %d auctions, %d bids, %d partners\n",
		res.Summary.SitesCrawled, res.Elapsed.Round(time.Millisecond), res.Summary.SitesWithHB,
		100*res.Summary.AdoptionRate(), res.Summary.Auctions, res.Summary.Bids,
		res.Summary.DemandPartners)
	fmt.Printf("median HB latency: %.0f ms\n", res.Latency.MedianMS)

	fmt.Printf("top demand partners (Figure 8, streamed):")
	top := topPartners.Result()
	for _, p := range top[:min(len(top), 5)] {
		fmt.Printf("  %s %.0f%%", p.Slug, 100*p.Share)
	}
	fmt.Printf("\n\n")

	if firstHybrid == nil {
		log.Fatal("no hybrid site generated (unexpected for this seed)")
	}

	// Drill into the richest facet with the single-page entry point: a
	// clean-slate visit, exactly what the crawl did for this site.
	site, _ := exp.World().SiteByDomain(firstHybrid.Domain)
	fmt.Printf("revisiting %s (ground truth: %s, %d ad units, partners %v)\n\n",
		site.PageURL(), site.Facet, len(site.AdUnits), site.Partners)
	rec := headerbid.VisitSite(exp.World(), site, 0, headerbid.DefaultCrawlConfig(7))

	for _, a := range rec.Auctions {
		fmt.Printf("auction %s unit=%s size=%s dur=%.0fms bids=%d",
			a.ID, a.AdUnit, a.Size, a.DurationMS, len(a.Bids))
		if a.Winner != "" {
			fmt.Printf(" winner=%s @ %.4f CPM", a.Winner, a.WinnerCPM)
		}
		fmt.Println()
		for _, b := range a.Bids {
			late := ""
			if b.Late {
				late = " (LATE — excluded from auction)"
			}
			fmt.Printf("  bid %-14s %.4f CPM %s %0.0fms%s\n",
				b.Bidder, b.CPM, b.Size, b.LatencyMS, late)
		}
	}
}
