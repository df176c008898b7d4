// Package metrictest is shared test support for analysis.Metric
// implementations: a randomized, crawl-shaped record generator and the
// shard-split merge-law check that every Metric in the module runs.
package metrictest

import (
	"fmt"
	"reflect"
	"testing"

	"headerbid/internal/analysis"
	"headerbid/internal/dataset"
	"headerbid/internal/partners"
	"headerbid/internal/rng"
)

// Records builds a crawl-shaped randomized dataset: day 0 visits every
// site in rank order, day 1 revisits (most of) the HB sites — the same
// (day, rank) stream order a real crawl emits — with enough variety to
// exercise every metric's filters (empty partner lists, zero slots,
// missing latencies, zero CPMs, unparseable sizes, s2s and late bids,
// auction winners, unknown facets, multi-day dedupe).
func Records(seed int64) []*dataset.SiteRecord {
	src := rng.New(seed)
	var slugs []string
	for _, p := range partners.Default().All() {
		slugs = append(slugs, p.Slug)
	}
	sizes := []string{"300x250", "728x90", "120x600", "970x250", ""}
	facets := []string{"server", "hybrid", "client", "server", "hybrid", ""}

	makeRec := func(domain string, rank, day int, hb bool) *dataset.SiteRecord {
		rec := &dataset.SiteRecord{Domain: domain, Rank: rank, VisitDay: day, HB: hb, Loaded: true}
		if !hb {
			return rec
		}
		rec.Facet = facets[src.Intn(len(facets))]
		seen := map[string]bool{}
		for j := src.Intn(8); j > 0; j-- {
			s := slugs[src.Intn(len(slugs))]
			if !seen[s] {
				seen[s] = true
				rec.Partners = append(rec.Partners, s)
			}
		}
		if src.Float64() < 0.75 {
			rec.TotalHBLatencyMS = 100 + 3000*src.Float64()
		}
		rec.AdSlotsAuctioned = src.Intn(25)
		for a := src.Intn(4); a > 0; a-- {
			au := dataset.AuctionRecord{
				ID: fmt.Sprintf("a%d", a), AdUnit: "u",
				Size: sizes[src.Intn(len(sizes))],
			}
			for b := src.Intn(4); b > 0; b-- {
				bid := dataset.BidRecord{
					Bidder:    slugs[src.Intn(len(slugs))],
					CPM:       src.Float64() * 1.2,
					Size:      sizes[src.Intn(len(sizes))],
					LatencyMS: 50 + 500*src.Float64(),
				}
				if src.Float64() < 0.1 {
					bid.CPM = 0
				}
				if src.Float64() < 0.25 {
					bid.Late = true
				}
				if src.Float64() < 0.2 {
					bid.Source = "s2s"
				}
				au.Bids = append(au.Bids, bid)
			}
			// Most auctions with bids close with a winner; a few winners
			// carry a zero CPM, which revenue measures must skip.
			if len(au.Bids) > 0 && src.Float64() < 0.7 {
				w := au.Bids[src.Intn(len(au.Bids))]
				au.Winner, au.WinnerCPM = w.Bidder, w.CPM
			}
			rec.Auctions = append(rec.Auctions, au)
		}
		if len(rec.Partners) > 0 {
			rec.PartnerLatencyMS = map[string][]float64{}
			for _, s := range rec.Partners {
				var ls []float64
				for k := 1 + src.Intn(3); k > 0; k-- {
					ls = append(ls, 50+800*src.Float64())
				}
				rec.PartnerLatencyMS[s] = ls
			}
			rec.Winners = rec.Partners[:1]
		}
		rec.Traffic = dataset.TrafficRecord{
			BidRequests: src.Intn(20), HostedCalls: src.Intn(3),
			AdServer: 1 + src.Intn(3), Creatives: src.Intn(5),
			Beacons: src.Intn(4), Scripts: src.Intn(6), Other: src.Intn(5),
		}
		if src.Float64() < 0.3 {
			rec.PartnerErrors = map[string]int{}
			for j := 1 + src.Intn(3); j > 0; j-- {
				rec.PartnerErrors[slugs[src.Intn(len(slugs))]] += 1 + src.Intn(3)
			}
			rec.Retries = src.Intn(4)
			rec.Abandoned = src.Intn(3)
		}
		if src.Float64() < 0.03 {
			rec.Quarantined = true
		}
		return rec
	}

	var recs, hbDay0 []*dataset.SiteRecord
	for i := 0; i < 400; i++ {
		rec := makeRec(fmt.Sprintf("site%04d.example", i), 1+src.Intn(20000), 0, src.Float64() < 0.45)
		recs = append(recs, rec)
		if rec.HB {
			hbDay0 = append(hbDay0, rec)
		}
	}
	for _, r0 := range hbDay0 {
		if src.Float64() < 0.8 {
			// Day-1 revisits occasionally lose the HB detection, so the
			// min-day dedupe has non-trivial work to do.
			recs = append(recs, makeRec(r0.Domain, r0.Rank, 1, src.Float64() < 0.9))
		}
	}
	return recs
}

// CheckLaws asserts the Metric merge laws for the metrics newMetric
// builds: splitting a Records stream across 2, 3 and 7 shards at random
// (preserving stream order within a shard, as a worker pool does) and
// merging them — in a random permutation, or pairwise as a tree — must
// be result-identical to one accumulator folding the stream in order.
// result maps a metric to the value compared with reflect.DeepEqual;
// nil compares Snapshot.
func CheckLaws(t testing.TB, newMetric func() analysis.Metric, result func(analysis.Metric) any) {
	t.Helper()
	if result == nil {
		result = analysis.Metric.Snapshot
	}
	for _, seed := range []int64{1, 2} {
		recs := Records(seed)
		want := result(analysis.Fold(newMetric(), recs))

		for _, nshards := range []int{2, 3, 7} {
			split := func() []analysis.Metric {
				src := rng.New(seed*100 + int64(nshards))
				proto := newMetric()
				shards := make([]analysis.Metric, nshards)
				for i := range shards {
					shards[i] = proto.NewShard()
				}
				for _, r := range recs {
					shards[src.Intn(nshards)].Add(r)
				}
				return shards
			}

			// Commutativity: merge the shards into an empty root in a
			// random order.
			shards := split()
			root := newMetric()
			for _, i := range rng.New(seed).Perm(nshards) {
				root.Merge(shards[i])
			}
			if got := result(root); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: seed %d, %d shards: permuted merge diverged from the in-order fold", root.Name(), seed, nshards)
			}

			// Associativity: pair the shards up tree-wise, then merge
			// the survivor into the root last.
			shards = split()
			for len(shards) > 1 {
				var next []analysis.Metric
				for i := 0; i < len(shards); i += 2 {
					if i+1 < len(shards) {
						shards[i].Merge(shards[i+1])
					}
					next = append(next, shards[i])
				}
				shards = next
			}
			root = newMetric()
			root.Merge(shards[0])
			if got := result(root); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: seed %d, %d shards: tree merge diverged from the in-order fold", root.Name(), seed, nshards)
			}
		}
	}
}
