package crawler

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"headerbid/internal/dataset"
	"headerbid/internal/overlay"
	"headerbid/internal/simnet"
	"headerbid/internal/sitegen"
	"headerbid/internal/webreq"
)

// Chaos-mode crawl tests: panic quarantine, retry/error labeling under
// injected faults, and corrupted-payload robustness through the full
// visit path.

// TestQuarantineProof is the degradation contract's acceptance test: a
// panic inside one visit becomes a labeled quarantine record, the
// worker survives, every other site is still crawled, and nothing
// escapes CrawlStreamSharded.
func TestQuarantineProof(t *testing.T) {
	w := smallWorld(t, 150)
	target := w.Sites[3].Domain

	opts := DefaultOptions(31)
	opts.Workers = 2
	opts.VisitHook = func(net *simnet.Network, s *sitegen.Site, day int) {
		if s.Domain == target {
			panic("chaos: injected visit panic")
		}
	}

	var recs []*dataset.SiteRecord
	err := CrawlStreamSharded(context.Background(), w, opts, func(v Visit) error {
		recs = append(recs, v.Record)
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 150 {
		t.Fatalf("crawl did not complete: %d/150 records", len(recs))
	}

	quarantined := 0
	for _, r := range recs {
		if r.Domain != target {
			if r.Quarantined {
				t.Fatalf("%s quarantined without a panic", r.Domain)
			}
			continue
		}
		quarantined++
		if !r.Quarantined {
			t.Fatalf("panicked visit not quarantined: %+v", r)
		}
		if !strings.HasPrefix(r.Err, "panic: chaos: injected visit panic") {
			t.Fatalf("quarantine record err = %q", r.Err)
		}
		if r.PanicSite == "" || !strings.Contains(r.PanicSite, "crawler") {
			t.Fatalf("panic site label = %q, want the panicking function", r.PanicSite)
		}
		if r.Rank != w.Sites[3].Rank || r.VisitDay != 0 {
			t.Fatalf("quarantine record lost identity: %+v", r)
		}
	}
	if quarantined != 1 {
		t.Fatalf("quarantined records = %d, want 1", quarantined)
	}
}

// TestQuarantineByteIdenticalAcrossWorkers: quarantine records are part
// of the dataset, so they obey the same determinism law as everything
// else — the panic-site label and error string must not depend on which
// worker goroutine hit the panic.
func TestQuarantineByteIdenticalAcrossWorkers(t *testing.T) {
	run := func(workers int) []byte {
		w := smallWorld(t, 120)
		opts := DefaultOptions(31)
		opts.Workers = workers
		opts.VisitHook = func(net *simnet.Network, s *sitegen.Site, day int) {
			if s.Rank%40 == 0 {
				panic("chaos: periodic panic")
			}
		}
		var buf bytes.Buffer
		dw := dataset.NewWriter(&buf)
		if err := CrawlStreamSharded(context.Background(), w, opts, func(v Visit) error {
			return dw.Write(v.Record)
		}, nil); err != nil {
			t.Fatal(err)
		}
		if err := dw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial, parallel := run(1), run(runtime.NumCPU())
	if !bytes.Equal(serial, parallel) {
		t.Fatal("quarantined crawl JSONL differs across worker counts")
	}
}

// TestRetryAndErrorLabeling drives an ecosystem-wide transport-failure
// overlay through a real crawl and checks the degradation telemetry:
// partner errors attributed, wrapper retries counted, and the crawl
// itself completing with zero quarantines (transport failure is a
// degraded outcome, never a panic).
func TestRetryAndErrorLabeling(t *testing.T) {
	w := smallWorld(t, 200)
	opts := DefaultOptions(7)
	opts.Overlay = &overlay.Overlay{
		Faults: []overlay.Fault{{Partner: "*", FailProb: 1, Err: "injected reset"}},
	}

	recs := CrawlWorld(w, opts)
	if len(recs) != 200 {
		t.Fatalf("crawl did not complete: %d/200 records", len(recs))
	}
	var errs, retries int
	for _, r := range recs {
		if r.Quarantined {
			t.Fatalf("transport failures must degrade, not quarantine: %+v", r)
		}
		for _, n := range r.PartnerErrors {
			errs += n
		}
		retries += r.Retries
	}
	if errs == 0 {
		t.Fatal("no partner errors recorded under FailProb=1")
	}
	if retries == 0 {
		t.Fatal("no wrapper retries recorded under FailProb=1")
	}
}

// TestPartnerTargetedFaultAttribution: a fault scoped to one partner
// slug must never be attributed to any other partner.
func TestPartnerTargetedFaultAttribution(t *testing.T) {
	w := smallWorld(t, 200)
	var slug string
	for _, s := range w.HBSites() {
		// Partners[0] is the ad server; target a real bidder.
		if len(s.Partners) >= 2 {
			slug = s.Partners[1]
			break
		}
	}
	if slug == "" {
		t.Fatal("no multi-partner HB site in world")
	}

	opts := DefaultOptions(7)
	opts.Overlay = &overlay.Overlay{
		Faults: []overlay.Fault{{Partner: slug, FailProb: 1}},
	}
	recs := CrawlWorld(w, opts)
	var hits int
	for _, r := range recs {
		for got, n := range r.PartnerErrors {
			if got != slug {
				t.Fatalf("error attributed to %q, fault targets %q", got, slug)
			}
			hits += n
		}
	}
	if hits == 0 {
		t.Fatalf("targeted fault on %q produced no attributed errors", slug)
	}
}

// corruptVisit crawls exactly one HB site with every partner bid
// endpoint replaced by a handler returning body, and returns the
// resulting record. Explicit Handle registrations take precedence over
// the world's resolver, so the override rides the normal visit path:
// wrapper -> rtb codec (fallback for foreign shapes) -> detector.
func corruptVisit(t testingT, w *sitegen.World, site *sitegen.Site, body string) *dataset.SiteRecord {
	opts := DefaultOptions(7)
	opts.Workers = 1
	opts.Filter = func(s *sitegen.Site) bool { return s.Domain == site.Domain }
	opts.VisitHook = func(net *simnet.Network, s *sitegen.Site, day int) {
		for _, slug := range s.Partners {
			if p, ok := w.Registry.BySlug(slug); ok {
				net.Handle(p.Host, func(req *webreq.Request) (int, string, time.Duration) {
					return 200, body, 5 * time.Millisecond
				})
			}
		}
	}
	var rec *dataset.SiteRecord
	if err := CrawlStreamSharded(context.Background(), w, opts, func(v Visit) error {
		rec = v.Record
		return nil
	}, nil); err != nil {
		t.Fatal(err)
	}
	if rec == nil {
		t.Fatal("no record emitted")
	}
	return rec
}

// testingT is the subset of testing.T/testing.F shared by the property
// test and the fuzz target.
type testingT interface {
	Fatal(args ...any)
	Fatalf(format string, args ...any)
}

// fuzzWorld picks a multi-partner HB site from a shared world.
func fuzzWorld(t testingT) (*sitegen.World, *sitegen.Site) {
	cfg := sitegen.DefaultConfig(42)
	cfg.NumSites = 150
	w := sitegen.Generate(cfg)
	for _, s := range w.HBSites() {
		if len(s.Partners) >= 2 {
			return w, s
		}
	}
	t.Fatal("no multi-partner HB site in world")
	return nil, nil
}

// FuzzCorruptedBidBody is the payload-robustness property: whatever
// bytes a partner returns as a bid response, the visit must complete as
// a normally labeled record — degraded, never quarantined, never
// panicking through the crawl.
func FuzzCorruptedBidBody(f *testing.F) {
	w, site := fuzzWorld(f)

	f.Add(`{"id":"1","seatbid":[{"bid":[{"impid":"slot0","price":1.23,"adm":"ad"}]}]}`)
	f.Add(`{"id":"1","seatbid":[{"bid":[{"impid":"slot0","pri`) // truncated mid-key
	f.Add(`{"x_chaos":1,"id":"1","seatbid":[]}`)                // foreign field (garble shape)
	f.Add(`{"seatbid":"not-an-array"}`)
	f.Add(`{"seatbid":[{"bid":[{"price":"NaN"}]}]}`)
	f.Add(``)
	f.Add(`null`)
	f.Add(`[[[[[[`)
	f.Add("\x00\xff garbage \x7f")
	f.Add(`{"id":}`)

	f.Fuzz(func(t *testing.T, body string) {
		rec := corruptVisit(t, w, site, body)
		if rec.Quarantined {
			t.Fatalf("corrupted body %q panicked the visit: %+v", body, rec)
		}
		if rec.Domain != site.Domain {
			t.Fatalf("record for wrong site: %+v", rec)
		}
	})
}

// TestCorruptBidHarnessReachesBidPath: a well-formed body through the
// same override must still yield a working HB visit — proof the fuzz
// harness exercises the real bid path rather than a dead endpoint.
// (The corrupted seeds themselves run as unit cases on every plain
// `go test`, since Go executes a fuzz target's seed corpus by default.)
func TestCorruptBidHarnessReachesBidPath(t *testing.T) {
	w, site := fuzzWorld(t)
	rec := corruptVisit(t, w, site,
		`{"id":"1","seatbid":[{"bid":[{"impid":"slot0","price":1.23,"adm":"ad"}]}]}`)
	if !rec.HB {
		t.Fatal("override harness broke HB detection for a valid body")
	}
}
