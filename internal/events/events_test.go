package events

import (
	"testing"

	"headerbid/internal/hb"
)

func TestBusSubscribeAndEmit(t *testing.T) {
	b := NewBus()
	var got []Event
	b.Subscribe(BidResponse, func(e Event) { got = append(got, e) })
	b.Emit(Event{Type: BidResponse, Bidder: "appnexus", CPM: 0.5})
	b.Emit(Event{Type: AuctionEnd}) // different type, must not deliver
	if len(got) != 1 || got[0].Bidder != "appnexus" {
		t.Fatalf("got %v", got)
	}
}

func TestBusSubscribeAll(t *testing.T) {
	b := NewBus()
	var seen []Type
	b.SubscribeAll(func(e Event) { seen = append(seen, e.Type) })
	for _, typ := range AllTypes() {
		b.Emit(Event{Type: typ})
	}
	if len(seen) != len(AllTypes()) {
		t.Fatalf("wildcard saw %d, want %d", len(seen), len(AllTypes()))
	}
	for i, typ := range AllTypes() {
		if seen[i] != typ {
			t.Fatalf("wildcard event %d = %s, want %s (emit order)", i, seen[i], typ)
		}
	}
}

func TestBusUnsubscribe(t *testing.T) {
	b := NewBus()
	n := 0
	cancel := b.Subscribe(BidWon, func(Event) { n++ })
	b.Emit(Event{Type: BidWon})
	cancel()
	b.Emit(Event{Type: BidWon})
	if n != 1 {
		t.Fatalf("n = %d after unsubscribe, want 1", n)
	}
}

func TestBusDeliveryOrder(t *testing.T) {
	b := NewBus()
	var order []int
	b.Subscribe(AuctionInit, func(Event) { order = append(order, 1) })
	b.Subscribe(AuctionInit, func(Event) { order = append(order, 2) })
	b.SubscribeAll(func(Event) { order = append(order, 3) })
	b.Emit(Event{Type: AuctionInit})
	want := []int{1, 2, 3}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestZeroValueBusUsable(t *testing.T) {
	var b Bus
	ok := false
	b.Subscribe(BidWon, func(Event) { ok = true })
	b.Emit(Event{Type: BidWon})
	if !ok {
		t.Fatal("zero-value bus did not deliver")
	}
}

func TestTypeValid(t *testing.T) {
	for _, typ := range AllTypes() {
		if !typ.Valid() {
			t.Errorf("type %q invalid", typ)
		}
	}
	if Type("madeUp").Valid() {
		t.Fatal("unknown type validated")
	}
}

func TestEventString(t *testing.T) {
	e := Event{Type: BidResponse, AuctionID: "a1", AdUnit: "u1",
		Bidder: "rubicon", CPM: 0.1234, Size: hb.Size{W: 300, H: 250}}
	s := e.String()
	for _, want := range []string{"bidResponse", "a1", "rubicon", "300x250"} {
		if !contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestListenerModificationDuringEmit(t *testing.T) {
	// A listener registering another listener mid-emit must not corrupt
	// delivery (new listener takes effect for subsequent emits).
	b := NewBus()
	n := 0
	b.Subscribe(AuctionEnd, func(Event) {
		n++
		if n == 1 {
			b.Subscribe(AuctionEnd, func(Event) { n += 10 })
		}
	})
	b.Emit(Event{Type: AuctionEnd})
	first := n
	b.Emit(Event{Type: AuctionEnd})
	if first != 1 && first != 11 {
		t.Fatalf("first emit n=%d", first)
	}
	if n < 12 {
		t.Fatalf("second emit did not reach new listener: n=%d", n)
	}
}

func TestBusReset(t *testing.T) {
	b := NewBus()
	n := 0
	cancelOld := b.Subscribe(AuctionInit, func(Event) { n++ })
	b.SubscribeAll(func(Event) { n += 100 })
	b.Emit(Event{Type: AuctionInit})
	if n != 101 {
		t.Fatalf("pre-reset n = %d", n)
	}

	b.Reset()
	n = 0
	b.Emit(Event{Type: AuctionInit})
	if n != 0 {
		t.Fatalf("old listeners survived reset: n = %d", n)
	}

	// A cancel issued before the reset must not nil a listener slot the
	// reset bus has re-used.
	b.Subscribe(AuctionInit, func(Event) { n++ })
	cancelOld()
	b.Emit(Event{Type: AuctionInit})
	if n != 1 {
		t.Fatalf("stale cancel killed new listener: n = %d", n)
	}
}
