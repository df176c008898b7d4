package crawler

import (
	"encoding/json"
	"testing"
	"time"

	"headerbid/internal/hb"
	"headerbid/internal/simnet"
	"headerbid/internal/sitegen"
)

// TestPooledRuntimeMatchesFreshAcrossSlabReuse runs an HB site, a
// non-HB site, a faulted HB site and the first HB site again on one
// pooled visit runtime, so every visit after the first reuses the fetch
// slabs of the network and the page. The faulted visit ends with a
// response still in flight (a slow-loris delay past the visit budget).
// Each record must equal the one a fresh runtime produces.
func TestPooledRuntimeMatchesFreshAcrossSlabReuse(t *testing.T) {
	w, faulted := faultWorld(t)
	var client, nonHB *sitegen.Site
	for _, s := range w.Sites {
		switch {
		case s.HB && s.Facet == hb.FacetClient && client == nil:
			client = s
		case !s.HB && nonHB == nil:
			nonHB = s
		}
	}
	if client == nil || nonHB == nil {
		t.Fatal("world lacks a client-side HB site or a non-HB site")
	}
	clean := DefaultOptions(99)
	faults := DefaultOptions(99)
	faults.VisitHook = func(net *simnet.Network, _ *sitegen.Site, _ int) {
		for i, slug := range faulted.Partners[1:] {
			p, _ := w.Registry.BySlug(slug)
			if i%2 == 0 {
				net.Fault(p.Host, simnet.FaultMode{FailProb: 1, Err: "connection refused"})
			} else {
				net.Fault(p.Host, simnet.FaultMode{SlowLorisProb: 1, SlowLorisStretch: 10 * time.Minute})
			}
		}
	}
	steps := []struct {
		site *sitegen.Site
		opts Options
	}{{client, clean}, {nonHB, clean}, {faulted, faults}, {client, clean}}

	vrt := newVisitRuntime()
	for i, st := range steps {
		pooled, err := json.Marshal(vrt.visit(w, st.site, 0, st.opts, nil))
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := json.Marshal(VisitSimulated(w, st.site, 0, st.opts))
		if err != nil {
			t.Fatal(err)
		}
		if string(pooled) != string(fresh) {
			t.Fatalf("visit %d (%s) on the pooled runtime differs from a fresh runtime:\npooled %s\nfresh  %s",
				i, st.site.Domain, pooled, fresh)
		}
		if pending := vrt.page.Inspector.Pending(); (st.site == faulted) != (pending > 0) {
			t.Fatalf("visit %d (%s) ended with %d requests in flight", i, st.site.Domain, pending)
		}
	}
}
