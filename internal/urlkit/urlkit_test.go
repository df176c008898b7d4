package urlkit

import (
	"testing"
	"testing/quick"
)

func TestHost(t *testing.T) {
	cases := []struct{ in, want string }{
		{"https://bid.adnxs.com/hb/v1/bid?x=1", "bid.adnxs.com"},
		{"http://EXAMPLE.com/", "example.com"},
		{"https://example.com:8443/p", "example.com"},
		{"not a url at all ://", ""},
		{"", ""},
	}
	for _, c := range cases {
		if got := Host(c.in); got != c.want {
			t.Errorf("Host(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestRegistrableDomain(t *testing.T) {
	cases := []struct{ in, want string }{
		{"prebid.adnxs.com", "adnxs.com"},
		{"adnxs.com", "adnxs.com"},
		{"a.b.c.doubleclick.net", "doubleclick.net"},
		{"x.y.co.uk", "y.co.uk"},
		{"deep.x.y.co.uk", "y.co.uk"},
		{"localhost", "localhost"},
		{"192.168.1.10", "192.168.1.10"},
		{"Sub.Example.COM.", "example.com"},
		{"", ""},
		{"platform-one.co.jp", "platform-one.co.jp"},
		{"bid.platform-one.co.jp", "platform-one.co.jp"},
	}
	for _, c := range cases {
		if got := RegistrableDomain(c.in); got != c.want {
			t.Errorf("RegistrableDomain(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestSameRegistrableDomain(t *testing.T) {
	if !SameRegistrableDomain("bid.adnxs.com", "sync.adnxs.com") {
		t.Fatal("same eTLD+1 not matched")
	}
	if SameRegistrableDomain("adnxs.com", "rubiconproject.com") {
		t.Fatal("different domains matched")
	}
	if SameRegistrableDomain("", "") {
		t.Fatal("empty hosts must not match")
	}
}

func TestQueryParams(t *testing.T) {
	q := URLQuery("https://x.example/ads?hb_bidder=appnexus&hb_pb=0.50&empty")
	if q.Get("hb_bidder") != "appnexus" || q.Get("hb_pb") != "0.50" {
		t.Fatalf("params = %q", q)
	}
	if v, ok := q.Lookup("empty"); !ok || v != "" {
		t.Fatal("bare key missing")
	}
	if _, ok := q.Lookup("absent"); ok {
		t.Fatal("absent key reported present")
	}
	if URLQuery("://bad") != "" {
		t.Fatal("malformed URL should yield the empty view")
	}
}

func TestWithParamsDeterministic(t *testing.T) {
	base := "https://s.example/serve?keep=1"
	got := BuildURL(base, "a", "1", "b", "2")
	want := "https://s.example/serve?a=1&b=2&keep=1"
	if got != want {
		t.Fatalf("BuildURL = %q, want %q", got, want)
	}
}

// Property: params written by BuildURL are recovered by the query view.
func TestParamsRoundTripProperty(t *testing.T) {
	f := func(keysRaw, valsRaw []string) bool {
		params := map[string]string{}
		for i := 0; i < len(keysRaw) && i < len(valsRaw) && i < 5; i++ {
			k := sanitizeKey(keysRaw[i])
			if k == "" {
				continue
			}
			params[k] = valsRaw[i]
		}
		q := URLQuery(BuildURL("https://host.example/p", sortedPairs(params)...))
		for k, v := range params {
			if got, ok := q.Lookup(k); !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func sanitizeKey(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		if (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9') || r == '_' {
			out = append(out, r)
		}
	}
	if len(out) > 12 {
		out = out[:12]
	}
	return string(out)
}
