// Package urlkit provides URL helpers used by the request inspector:
// an allocation-free query view (Query) and the URL builders that encode
// one (BuildURL, EncodeQuery, Params), registrable-domain extraction (a
// simplified public-suffix view, sufficient for matching demand-partner
// endpoints), and host normalization.
//
// The helpers here sit on the crawl's per-request hot path (every hop of
// every simulated request parses a host or a query), so each has a
// hand-rolled fast path that avoids net/url's allocation cost for the
// clean absolute URLs the simulation mints; anything unusual falls back
// to net/url so the semantics stay exactly the standard library's.
package urlkit

import (
	"net/url"
	"strings"
)

// multiLabelSuffixes lists the multi-label public suffixes that actually
// occur among ad-tech endpoints; anything else is treated as a one-label
// TLD. A full public-suffix list is unnecessary for the closed world of
// demand-partner hosts this library matches against.
var multiLabelSuffixes = map[string]bool{
	"co.uk": true, "org.uk": true, "ac.uk": true, "gov.uk": true,
	"com.au": true, "net.au": true, "org.au": true,
	"co.jp": true, "ne.jp": true, "or.jp": true,
	"com.br": true, "com.cn": true, "com.tr": true, "com.mx": true,
	"co.in": true, "co.kr": true, "co.za": true, "com.sg": true,
	"com.hk": true, "com.tw": true,
}

// Host returns the lower-cased host (without port) of a raw URL, or ""
// when the URL cannot be parsed.
func Host(raw string) string {
	h, _ := HostQuery(raw)
	return h
}

// HostQuery returns Host(raw) and URLQuery(raw) from one pass over raw.
func HostQuery(raw string) (host string, q Query) {
	ctl := hasControlByte(raw)
	if !ctl {
		if h, q, ok := splitClean(raw); ok {
			return lowerASCII(h), q
		}
	}
	u, err := url.Parse(raw)
	if err != nil {
		return "", ""
	}
	if !ctl {
		q = Query(u.RawQuery)
	}
	return strings.ToLower(u.Hostname()), q
}

// splitClean splits a plain absolute URL ("scheme://host[:port]/...")
// free of control bytes into its host, as written, and its query,
// without allocating. It reports false for anything the strict byte
// checks do not accept (userinfo, IPv6 literals, escapes, spaces, a
// non-numeric port, a second colon, ...): those take net/url, so the
// semantics — including its rejections — stay exactly the standard
// library's.
func splitClean(raw string) (host string, q Query, ok bool) {
	i := strings.Index(raw, "://")
	if i <= 0 || !isPlainScheme(raw[:i]) {
		return "", "", false
	}
	rest := raw[i+3:]
	end := len(rest)
	for j := 0; j < len(rest); j++ {
		if c := rest[j]; c == '/' || c == '?' || c == '#' {
			end = j
			break
		}
	}
	if host, ok = plainHostPort(rest[:end]); !ok {
		return "", "", false
	}
	// The fragment goes first, as in net/url, so a '?' inside it
	// ("#/route?x=y") is not mistaken for a query.
	tail := rest[end:]
	if k := strings.IndexByte(tail, '#'); k >= 0 {
		tail = tail[:k]
	}
	if k := strings.IndexByte(tail, '?'); k >= 0 {
		q = Query(tail[k+1:])
	}
	return host, q, true
}

// plainHostPort strips an optional numeric port from a "host[:port]"
// authority and reports whether every hostname byte is an ordinary
// registered-name character (letters, digits, '.', '-', '_'). Anything
// else — including the characters net/url rejects with an error — must
// take the slow path.
func plainHostPort(s string) (host string, ok bool) {
	host = s
	if j := strings.IndexByte(s, ':'); j >= 0 {
		host = s[:j]
		port := s[j+1:]
		for k := 0; k < len(port); k++ {
			if port[k] < '0' || port[k] > '9' {
				return "", false
			}
		}
	}
	for k := 0; k < len(host); k++ {
		c := host[k]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z',
			'0' <= c && c <= '9', c == '.', c == '-', c == '_':
		default:
			return "", false
		}
	}
	return host, true
}

// isPlainScheme reports whether s looks like an ordinary URL scheme
// (letters only — covers http/https, which is all the simulation mints).
func isPlainScheme(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z') {
			return false
		}
	}
	return len(s) > 0
}

// isLowerScheme is isPlainScheme restricted to lower-case (the form
// url.URL.String would emit unchanged).
func isLowerScheme(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 'a' || c > 'z' {
			return false
		}
	}
	return len(s) > 0
}

// isCleanPathBytes reports whether every byte of an authority+path
// string is one net/url's String would pass through unescaped (the
// unreserved and path sub-delim sets). Anything else — '?', '#', '%',
// spaces, controls, non-ASCII — disqualifies the fast path.
func isCleanPathBytes(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '-' || c == '.' || c == '_' || c == '~' || c == '/' ||
			c == ':' || c == '@' || c == '$' || c == '&' || c == '+' ||
			c == ',' || c == ';' || c == '=' || c == '!' || c == '\'' ||
			c == '(' || c == ')' || c == '*':
		default:
			return false
		}
	}
	return true
}

// LowerASCII lower-cases s, allocating only when it contains upper-case
// ASCII or non-ASCII bytes (generated hosts and wrapper-emitted keys are
// already lower-case). Shared by the host normalization here and the
// hb-targeting key matching.
func LowerASCII(s string) string {
	for i := 0; i < len(s); i++ {
		if c := s[i]; 'A' <= c && c <= 'Z' || c >= 0x80 {
			return strings.ToLower(s)
		}
	}
	return s
}

func lowerASCII(s string) string { return LowerASCII(s) }

// RegistrableDomain reduces a hostname to its registrable domain
// (eTLD+1): "prebid.adnxs.com" -> "adnxs.com", "x.y.co.uk" -> "y.co.uk".
// IP literals and single-label hosts are returned unchanged.
func RegistrableDomain(host string) string {
	host = lowerASCII(strings.TrimSuffix(host, "."))
	if host == "" || strings.Contains(host, ":") {
		return host
	}
	// Scan label boundaries from the right instead of materializing a
	// label slice: dot3 < dot2 are the second- and third-from-last dots.
	dot2, dot3 := -1, -1
	dots := 0
	for i := len(host) - 1; i >= 0; i-- {
		if host[i] != '.' {
			continue
		}
		dots++
		switch dots {
		case 2:
			dot2 = i
		case 3:
			dot3 = i
		}
	}
	if dots <= 1 { // one or two labels
		return host
	}
	if dots == 3 && isIPv4(host) {
		return host
	}
	tail2 := host[dot2+1:]
	if multiLabelSuffixes[tail2] {
		return host[dot3+1:] // dot3 == -1 when exactly three labels
	}
	return tail2
}

func isIPv4(host string) bool {
	run := 0
	for i := 0; i < len(host); i++ {
		c := host[i]
		switch {
		case c == '.':
			if run == 0 {
				return false
			}
			run = 0
		case c >= '0' && c <= '9':
			run++
			if run > 3 {
				return false
			}
		default:
			return false
		}
	}
	return run > 0
}

// SameRegistrableDomain reports whether two hosts share a registrable
// domain, the matching rule used when attributing a web request to a
// demand partner.
func SameRegistrableDomain(a, b string) bool {
	return RegistrableDomain(a) == RegistrableDomain(b) && RegistrableDomain(a) != ""
}
