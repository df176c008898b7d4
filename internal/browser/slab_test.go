package browser

import (
	"testing"
	"time"

	"headerbid/internal/clock"
	"headerbid/internal/simnet"
	"headerbid/internal/webreq"
)

// slabWorld is one pooled visit substrate on the simulated network: a
// slow host whose response outlives a short visit, and a fast one.
func slabWorld() (*clock.Scheduler, *simnet.Network, *Page) {
	sched := clock.NewScheduler(time.Time{})
	n := simnet.New(sched, 1)
	n.SetRTT(10*time.Millisecond, 0)
	return sched, n, NewPage(n.Env(), Options{})
}

func handleHosts(n *simnet.Network) {
	n.Handle("slow.example", func(*webreq.Request) (int, string, time.Duration) { return 200, "old", time.Second })
	n.Handle("fast.example", func(*webreq.Request) (int, string, time.Duration) { return 200, "new", 0 })
}

// checkNextVisit fetches once on the rebound page and requires exactly
// that exchange, answered, with no delivery to the previous visit.
func checkNextVisit(t *testing.T, sched *clock.Scheduler, p *Page, oldCalls *int) {
	t.Helper()
	var got []*webreq.Response
	p.Fetch(&webreq.Request{URL: "https://fast.example/"}, func(r *webreq.Response) { got = append(got, r) })
	sched.Run()
	if *oldCalls != 0 {
		t.Fatalf("a fetch of the previous visit delivered %d times into this one", *oldCalls)
	}
	if len(got) != 1 || got[0].Body != "new" || got[0].RequestID != 1 {
		t.Fatalf("current fetch delivered %+v, want one \"new\" response for request 1", got)
	}
	xs := p.Inspector.Exchanges()
	if len(xs) != 1 || xs[0].Response != got[0] || xs[0].Request.URL != "https://fast.example/" {
		t.Fatalf("inspector holds %v, want the one current exchange", xs)
	}
}

// TestInFlightFetchNeverDeliversIntoNextVisit ends a visit while a fetch
// is in flight, in the pooled order (scheduler, network, page). The idle
// network lets the rebind reuse the fetch slots although one fetch never
// delivered; the next visit must still see only its own exchange.
func TestInFlightFetchNeverDeliversIntoNextVisit(t *testing.T) {
	sched, n, p := slabWorld()
	handleHosts(n)
	oldCalls := 0
	p.Fetch(&webreq.Request{URL: "https://fast.example/"}, func(*webreq.Response) {})
	sched.RunUntil(sched.Now().Add(100 * time.Millisecond))
	p.Fetch(&webreq.Request{URL: "https://slow.example/"}, func(*webreq.Response) { oldCalls++ })
	sched.RunUntil(sched.Now().Add(100 * time.Millisecond)) // slow reply still queued
	p.Close()

	sched.Reset(time.Time{})
	n.Reset(2)
	handleHosts(n)
	p.Rebind(n.Env(), Options{})
	checkNextVisit(t, sched, p, &oldCalls)
}

// TestStaleDeliveryAfterRebindIsDropped rebinds the page while the old
// fetch's delivery is still queued on a scheduler nobody reset: the late
// delivery must be dropped, not handed to the next visit's callbacks or
// recorded against its request of the same ID.
func TestStaleDeliveryAfterRebindIsDropped(t *testing.T) {
	sched, n, p := slabWorld()
	handleHosts(n)
	oldCalls := 0
	p.Fetch(&webreq.Request{URL: "https://slow.example/"}, func(*webreq.Response) { oldCalls++ })
	sched.RunUntil(sched.Now().Add(100 * time.Millisecond))
	p.Close()

	p.Rebind(n.Env(), Options{}) // the old delivery is still queued
	checkNextVisit(t, sched, p, &oldCalls)
}
