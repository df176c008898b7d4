package crawler

import (
	"testing"
	"time"

	"headerbid/internal/dataset"
	"headerbid/internal/hb"
	"headerbid/internal/simnet"
	"headerbid/internal/sitegen"
)

// visitFaulted runs one production visit of s, with prep (when non-nil)
// injecting faults on the visit's network through the VisitHook.
func visitFaulted(w *sitegen.World, s *sitegen.Site, prep func(*simnet.Network)) *dataset.SiteRecord {
	opts := DefaultOptions(99)
	if prep != nil {
		opts.VisitHook = func(net *simnet.Network, _ *sitegen.Site, _ int) { prep(net) }
	}
	return VisitSimulated(w, s, 0, opts)
}

func faultWorld(t *testing.T) (*sitegen.World, *sitegen.Site) {
	t.Helper()
	cfg := sitegen.DefaultConfig(61)
	cfg.NumSites = 400
	w := sitegen.Generate(cfg)
	for _, s := range w.HBSites() {
		// A hybrid site with several bidders gives faults something to hit.
		if s.Facet == hb.FacetHybrid && len(s.Partners) >= 4 {
			return w, s
		}
	}
	t.Fatal("no suitable hybrid site")
	return nil, nil
}

func TestDetectionSurvivesPartnerOutage(t *testing.T) {
	w, site := faultWorld(t)
	// Kill every bidder endpoint except DFP: bid requests all fail at
	// transport level, yet the page must still be classified HB (the ad
	// server round still happens) and must not crash anything.
	obs := visitFaulted(w, site, func(net *simnet.Network) {
		for _, slug := range site.Partners[1:] {
			p, _ := w.Registry.BySlug(slug)
			net.Fault(p.Host, simnet.FaultMode{FailProb: 1, Err: "connection refused"})
		}
	})
	if !obs.HB {
		t.Fatal("total bidder outage broke HB detection")
	}
	for _, a := range obs.Auctions {
		for _, b := range a.Bids {
			if b.Source == "client" {
				t.Fatalf("client bid recorded despite outage: %+v", b)
			}
		}
	}
}

func TestDetectionSurvivesAdServerOutage(t *testing.T) {
	w, site := faultWorld(t)
	obs := visitFaulted(w, site, func(net *simnet.Network) {
		net.Fault("doubleclick.net", simnet.FaultMode{FailProb: 1, Err: "reset"})
	})
	// With DFP dark, client-side events still fire: the page is detected
	// via the event channel; latency is simply unmeasurable.
	if !obs.HB {
		t.Fatal("ad-server outage broke detection entirely")
	}
	if obs.TotalHBLatencyMS != 0 {
		t.Fatalf("latency measured without an ad-server response: %vms", obs.TotalHBLatencyMS)
	}
}

func TestDetectionSurvivesSlowPartners(t *testing.T) {
	w, site := faultWorld(t)
	obs := visitFaulted(w, site, func(net *simnet.Network) {
		for _, slug := range site.Partners[1:] {
			p, _ := w.Registry.BySlug(slug)
			net.Fault(p.Host, simnet.FaultMode{ExtraLatency: 20 * time.Second})
		}
	})
	if !obs.HB {
		t.Fatal("slow partners broke detection")
	}
	// The wrapper's deadline bounds the round: latency stays near the
	// site's timeout plus the ad-server exchange, far below the injected
	// 20s delay.
	limit := float64(site.TimeoutMS) + 5000
	if obs.TotalHBLatencyMS <= 0 || obs.TotalHBLatencyMS > limit {
		t.Fatalf("latency = %vms, want (0, %v] (deadline must bound the round)", obs.TotalHBLatencyMS, limit)
	}
}

func TestCleanRunMatchesFaultFreeBaseline(t *testing.T) {
	w, site := faultWorld(t)
	a := visitFaulted(w, site, nil)
	b := visitFaulted(w, site, nil)
	if a.Facet != b.Facet || a.TotalHBLatencyMS != b.TotalHBLatencyMS {
		t.Fatal("fault-free visits not reproducible")
	}
}
