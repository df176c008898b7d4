package simnet

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"headerbid/internal/webreq"
)

// TestSlabReusesCallsAfterReset pins the fetch slab: after a reset that
// follows a drained scheduler, the next visit's fetch state lands in the
// storage of the previous one instead of a fresh allocation.
func TestSlabReusesCallsAfterReset(t *testing.T) {
	n, sched := newNet()
	n.Handle("a.example", func(*webreq.Request) (int, string, time.Duration) { return 200, "ok", 0 })
	env := n.Env()
	var first *webreq.Response
	env.Fetch(&webreq.Request{ID: 1, URL: "https://a.example/"}, func(r *webreq.Response) { first = r })
	sched.Run()
	if first == nil || first.Body != "ok" {
		t.Fatalf("first visit response = %+v", first)
	}

	sched.Reset(time.Time{})
	n.Reset(2)
	n.Handle("a.example", func(*webreq.Request) (int, string, time.Duration) { return 200, "again", 0 })
	var second *webreq.Response
	env.Fetch(&webreq.Request{ID: 1, URL: "https://a.example/"}, func(r *webreq.Response) { second = r })
	sched.Run()
	if second != first {
		t.Fatalf("second visit's response at %p, want the rewound slot %p", second, first)
	}
	if second.Body != "again" || second.Err != "" || second.Status != 200 {
		t.Fatalf("reused slot kept stale state: %+v", second)
	}
}

// TestSlabStaleCallNeverReachesNextVisit resets the network while a
// fetch is still queued on a scheduler that was not reset (the order
// DESIGN §5.3 forbids). The late delivery must reach the old callback
// with the old response, and the next visit's fetch must get storage of
// its own.
func TestSlabStaleCallNeverReachesNextVisit(t *testing.T) {
	n, sched := newNet()
	n.SetRTT(10*time.Millisecond, 0)
	n.Handle("slow.example", func(*webreq.Request) (int, string, time.Duration) { return 200, "old", time.Second })
	env := n.Env()
	var old []*webreq.Response
	env.Fetch(&webreq.Request{ID: 7, URL: "https://slow.example/"}, func(r *webreq.Response) { old = append(old, r) })
	sched.RunUntil(sched.Now().Add(100 * time.Millisecond)) // the handler ran; delivery is queued

	n.Reset(2) // scheduler still holds the old delivery
	n.Handle("fast.example", func(*webreq.Request) (int, string, time.Duration) { return 200, "new", 0 })
	var cur []*webreq.Response
	env.Fetch(&webreq.Request{ID: 1, URL: "https://fast.example/"}, func(r *webreq.Response) { cur = append(cur, r) })
	sched.Run()

	if len(old) != 1 || old[0].Body != "old" || old[0].RequestID != 7 {
		t.Fatalf("stale fetch delivered %+v, want one \"old\" response for request 7", old)
	}
	if len(cur) != 1 || cur[0].Body != "new" || cur[0].RequestID != 1 {
		t.Fatalf("current fetch delivered %+v, want one \"new\" response for request 1", cur)
	}
	if old[0] == cur[0] {
		t.Fatal("the current visit's response shares storage with a stale delivery")
	}
}

// TestNeverResetNetworkBoundedMemory drives many fetches through a
// network that is never reset: its slab stops growing at a fixed cap and
// later fetches come from the heap, so live memory stays flat.
func TestNeverResetNetworkBoundedMemory(t *testing.T) {
	n, sched := newNet()
	n.Handle("a.example", func(*webreq.Request) (int, string, time.Duration) { return 200, "ok", 0 })
	env := n.Env()
	body := strings.Repeat("x", 512)
	round := func(k int) {
		for i := 0; i < k; i++ {
			env.Fetch(&webreq.Request{URL: "https://a.example/", Body: body}, func(*webreq.Response) {})
		}
		sched.Run()
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	round(4000) // past the slab's cap
	before := heap()
	for r := 0; r < 40; r++ {
		round(2000)
	}
	after := heap()
	runtime.KeepAlive(n) // the network, and what it holds, is live throughout
	// 80,000 fetches; anything like per-fetch retention would be tens
	// of megabytes.
	if after > before+4<<20 {
		t.Fatalf("heap grew from %d to %d bytes over 80k fetches on a never-reset network", before, after)
	}
}
