package urlkit

import (
	"bytes"
	"net/url"
	"strings"
	"testing"
)

// mapQueryParams is the map-building query reader the Query view
// replaced, kept as the view's reference: the first value of each key,
// nil when the URL is rejected or no pair survives, and the same
// clean-URL fast path (a fragment's bytes are never validated on it).
func mapQueryParams(raw string) map[string]string {
	if hasControlByte(raw) {
		return nil
	}
	pre := raw
	if i := strings.IndexByte(pre, '#'); i >= 0 {
		pre = pre[:i]
	}
	q := ""
	if i := strings.IndexByte(pre, '?'); i >= 0 {
		q = pre[i+1:]
		pre = pre[:i]
	}
	fast := false
	if i := strings.Index(pre, "://"); i > 0 && isPlainScheme(pre[:i]) {
		rest := pre[i+3:]
		end := len(rest)
		if j := strings.IndexByte(rest, '/'); j >= 0 {
			end = j
		}
		_, fast = plainHostPort(rest[:end])
	}
	if !fast {
		u, err := url.Parse(raw)
		if err != nil {
			return nil
		}
		q = u.RawQuery
	}
	if q == "" {
		return map[string]string{}
	}
	out := make(map[string]string, 8)
	sawErr := false
	for q != "" {
		var pair string
		pair, q, _ = strings.Cut(q, "&")
		if pair == "" {
			continue
		}
		if strings.IndexByte(pair, ';') >= 0 {
			sawErr = true
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		k, errK := url.QueryUnescape(k)
		if errK != nil {
			sawErr = true
			continue
		}
		v, errV := url.QueryUnescape(v)
		if errV != nil {
			sawErr = true
			continue
		}
		if _, dup := out[k]; !dup {
			out[k] = v
		}
	}
	if sawErr && len(out) == 0 {
		return nil
	}
	return out
}

// splitHost is the host reader HostQuery replaced, kept as its
// reference: its own clean-URL fast path, net/url otherwise.
func splitHost(raw string) string {
	if i := strings.Index(raw, "://"); i > 0 && isPlainScheme(raw[:i]) && !hasControlByte(raw) {
		rest := raw[i+3:]
		end := len(rest)
		for j := 0; j < len(rest); j++ {
			if c := rest[j]; c == '/' || c == '?' || c == '#' {
				end = j
				break
			}
		}
		if host, ok := plainHostPort(rest[:end]); ok {
			return LowerASCII(host)
		}
	}
	u, err := url.Parse(raw)
	if err != nil {
		return ""
	}
	return strings.ToLower(u.Hostname())
}

// FuzzQuery checks the query view (and HostQuery's host) against the
// readers it replaced and the builders against url.Values.Encode, on
// arbitrary bytes.
func FuzzQuery(f *testing.F) {
	for _, raw := range corpus {
		f.Add(raw, "hb_bidder")
	}
	f.Add("https://x.example/?a=1&a=2&%61=3&b+c=4&b%20c=5", "b c")
	f.Add("https://x.example/?z=1&a=2&a=3", "a")
	f.Add("https://x.example/?a=1#%zz", "a")
	f.Fuzz(func(t *testing.T, raw, key string) {
		q := URLQuery(raw)
		if h, hq := HostQuery(raw); h != splitHost(raw) || hq != q {
			t.Fatalf("HostQuery(%q) = %q, %q; want %q, %q", raw, h, hq, splitHost(raw), q)
		}
		ref := mapQueryParams(raw)
		got := viewMap(t, q)
		if len(got) != len(ref) {
			t.Fatalf("URLQuery(%q) yields %q, reference %q", raw, got, ref)
		}
		for k, v := range ref {
			if got[k] != v {
				t.Fatalf("URLQuery(%q) yields %q=%q, reference %q", raw, k, got[k], v)
			}
			if g, ok := q.Lookup(k); !ok || g != v {
				t.Fatalf("URLQuery(%q).Lookup(%q) = %q, %v, reference %q", raw, k, g, ok, v)
			}
		}
		g, ok := q.Lookup(key)
		if want, inRef := ref[key]; ok != inRef || g != want || q.Get(key) != want {
			t.Fatalf("URLQuery(%q).Lookup(%q) = %q, %v, reference %q, %v", raw, key, g, ok, want, inRef)
		}
		var keys []string
		for k := range q.Keys() {
			keys = append(keys, k)
		}
		if len(keys) != len(got) {
			t.Fatalf("URLQuery(%q).Keys() = %q, All yields %d keys", raw, keys, len(got))
		}
		for k, v := range q.All() { // an early break must stop cleanly
			if got[k] != v {
				t.Fatalf("URLQuery(%q) first pair %q=%q differs from full iteration", raw, k, v)
			}
			break
		}

		// Builders: the raw pairs of the input, first value wins, as
		// arbitrary bytes to encode.
		params := map[string]string{}
		for _, pair := range strings.Split(raw, "&") {
			k, v, _ := strings.Cut(pair, "=")
			if _, dup := params[k]; !dup {
				params[k] = v
			}
		}
		kv := sortedPairs(params)
		vals := url.Values{}
		for k, v := range params {
			vals.Set(k, v)
		}
		enc := EncodeQuery(kv...)
		if string(enc) != vals.Encode() {
			t.Fatalf("EncodeQuery(%q) = %q, url.Values.Encode %q", kv, enc, vals.Encode())
		}
		for k, v := range params {
			if g, ok := enc.Lookup(k); !ok || g != v {
				t.Fatalf("EncodeQuery(%q).Lookup(%q) = %q, %v, want %q", kv, k, g, ok, v)
			}
		}
		const base = "https://h.example/p"
		if got, want := BuildURL(base, kv...), refWithParams(base, params); got != want {
			t.Fatalf("BuildURL(%q) = %q, reference %q", kv, got, want)
		}
	})
}

func TestQueryFirstValueWinsAndOrder(t *testing.T) {
	q := URLQuery("https://x.example/p?b=1&a=2&b=3&%61=4&c+d=5&c%20d=6&bad=%zz&bad=ok&;x=1")
	var keys, vals []string
	for k, v := range q.All() {
		keys = append(keys, k)
		vals = append(vals, v)
	}
	if got := strings.Join(keys, ","); got != "b,a,c d,bad" {
		t.Fatalf("keys = %q", got)
	}
	if got := strings.Join(vals, ","); got != "1,2,5,ok" {
		t.Fatalf("values = %q", got)
	}
	if q.Get("a") != "2" || q.Get("c d") != "5" || q.Get("bad") != "ok" {
		t.Fatalf("Get disagrees with iteration: a=%q c d=%q bad=%q", q.Get("a"), q.Get("c d"), q.Get("bad"))
	}
}

// TestQueryReadsAllocationFree pins the view's point: reading a clean
// query (the shape every simulated request carries) allocates nothing.
func TestQueryReadsAllocationFree(t *testing.T) {
	const raw = "https://creatives.example/render?channel=hb&hb_bidder=rubicon&hb_pb=0.50&hb_size=300x250&size=300x250&slot=div-1"
	var sink int
	allocs := testing.AllocsPerRun(200, func() {
		q := URLQuery(raw)
		sink += len(q.Get("hb_bidder"))
		if _, ok := q.Lookup("slot"); ok {
			sink++
		}
		for k, v := range q.All() {
			sink += len(k) + len(v)
		}
		for k := range q.Keys() {
			sink += len(k)
		}
		sink += len(URLQuery("https://www.site.example/").Get("x"))
	})
	if allocs != 0 {
		t.Fatalf("query reads allocate %.1f objects per run, want 0", allocs)
	}
	_ = sink
}

// TestBuildURLOneAllocation pins the builder's cost on a clean base: the
// finished URL is its only allocation.
func TestBuildURLOneAllocation(t *testing.T) {
	allocs := testing.AllocsPerRun(200, func() {
		_ = BuildURL("https://creatives.example/render", "channel", "hb", "slot", "a|300x250")
	})
	if allocs != 1 {
		t.Fatalf("BuildURL allocates %.1f objects per call, want 1", allocs)
	}
}

func TestParamsSetReplacesAndSorts(t *testing.T) {
	var p Params
	p.Set("site", "s.example")
	p.Set("hb_pb", "0.50")
	p.Set("a b", "x")
	p.Set("hb_pb", "1.00")
	if !p.Has("hb_pb") || p.Has("hb_bidder") {
		t.Fatalf("Has: hb_pb=%v hb_bidder=%v", p.Has("hb_pb"), p.Has("hb_bidder"))
	}
	if got, want := p.URL("https://a.example/serve"), "https://a.example/serve?a+b=x&hb_pb=1.00&site=s.example"; got != want {
		t.Fatalf("URL = %q, want %q", got, want)
	}
}

func TestBuildersRejectUnsortedKeys(t *testing.T) {
	for _, kv := range [][]string{{"b", "1", "a", "2"}, {"a", "1", "a", "2"}, {"a"}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BuildURL(%q) did not panic", kv)
				}
			}()
			BuildURL("https://a.example/p", kv...)
		}()
	}
}

// TestHasControlByteWordScan checks the eight-bytes-at-a-time scan
// against a byte loop for every byte value at every word position, among
// neighbours at both ends of the byte range.
func TestHasControlByteWordScan(t *testing.T) {
	for _, fill := range []byte{'a', ' ', 0x80, 0xff} {
		for c := 0; c < 256; c++ {
			for pos := 0; pos < 19; pos++ {
				b := bytes.Repeat([]byte{fill}, 19)
				b[pos] = byte(c)
				want := c < 0x20 || c == 0x7f
				if got := hasControlByte(string(b)); got != want {
					t.Fatalf("hasControlByte(%q) = %v, want %v", b, got, want)
				}
			}
		}
	}
}
