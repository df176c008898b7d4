package urlkit

import (
	"iter"
	"net/url"
	"strings"
)

// Query is a read-only view of a URL query component: the raw bytes
// after '?', without the fragment ("a=1&b=x%7Cy"). Reading it allocates
// nothing unless a returned key or value holds escapes, which are
// decoded (one allocation) when read.
//
// The view reads a query exactly as url.ParseQuery does, keeping the
// first value of a repeated key: pairs are split on '&', empty pairs
// are skipped, and a pair that holds a ';' or an invalid %-escape is
// dropped. A query with no usable pair yields nothing.
type Query string

// URLQuery returns the query view of a raw URL. Clean absolute URLs (the
// ones the simulation mints) are split without parsing; anything else
// goes through net/url. A URL net/url rejects yields the empty view, and
// so does one holding a control byte anywhere, even in the fragment
// (which net/url accepts).
func URLQuery(raw string) Query {
	if hasControlByte(raw) {
		return ""
	}
	if _, q, ok := splitClean(raw); ok {
		return q
	}
	u, err := url.Parse(raw)
	if err != nil {
		return ""
	}
	return Query(u.RawQuery)
}

// Get returns the first value of key, or "" when key is absent.
func (q Query) Get(key string) string {
	v, _ := q.Lookup(key)
	return v
}

// Lookup returns the first value of key and whether key is present (a
// bare "key" or "key=" is present with the empty value).
func (q Query) Lookup(key string) (string, bool) {
	for s := string(q); s != ""; {
		end := strings.IndexByte(s, '&')
		if end < 0 {
			end = len(s)
		}
		// Most pairs are rejected on their first byte or two, before the
		// pair as a whole is checked.
		if hasKey(s, key) {
			if p, _ := nextPair(s[:end]); p.ok {
				return unescapeValid(p.v, p.vEsc), true
			}
		}
		if end == len(s) {
			break
		}
		s = s[end+1:]
	}
	return "", false
}

// hasKey reports whether the pair at the start of s has a key that
// decodes to key. An invalid escape never matches.
func hasKey(s, key string) bool {
	i := 0
	for j := 0; j < len(key); j++ {
		if i >= len(s) {
			return false
		}
		c := s[i]
		switch c {
		case '&', '=':
			return false
		case '%':
			if i+2 >= len(s) || !isHex(s[i+1]) || !isHex(s[i+2]) {
				return false
			}
		}
		c, i = decodeAt(s, i)
		if c != key[j] {
			return false
		}
	}
	return i == len(s) || s[i] == '&' || s[i] == '='
}

// All iterates the query's keys in order of first appearance, each with
// its first value; later pairs that repeat a key are skipped.
func (q Query) All() iter.Seq2[string, string] {
	return func(yield func(k, v string) bool) {
		q.each(func(p pair) bool {
			return yield(unescapeValid(p.k, p.kEsc), unescapeValid(p.v, p.vEsc))
		})
	}
}

// Keys iterates the query's keys as All does, without decoding values.
func (q Query) Keys() iter.Seq[string] {
	return func(yield func(k string) bool) {
		q.each(func(p pair) bool { return yield(unescapeValid(p.k, p.kEsc)) })
	}
}

// each calls fn on the first usable pair of every key, in order, until
// fn returns false.
func (q Query) each(fn func(pair) bool) {
	// A query without '%', '+' or ';' (most of what the simulation
	// mints) needs no byte-wise scan: its pairs split at '&' and '='.
	plain := strings.IndexByte(string(q), '%') < 0 && strings.IndexByte(string(q), '+') < 0 &&
		strings.IndexByte(string(q), ';') < 0
	// While every key so far is escape-free and greater than the one
	// before it, as in a query the builders below encode, a new key
	// cannot repeat an earlier one. Only a query that breaks that order
	// pays for scanning its prefix.
	sorted, prev := true, ""
	for s := string(q); s != ""; {
		start := len(q) - len(s)
		var p pair
		if plain {
			p, s = nextPlainPair(s)
		} else {
			p, s = nextPair(s)
		}
		if !p.ok {
			continue
		}
		if sorted && (p.k <= prev || p.kEsc) {
			sorted = false
		}
		prev = p.k
		if !sorted && q[:start].seen(p.k) {
			continue
		}
		if !fn(p) {
			return
		}
	}
}

// nextPlainPair is nextPair for a query holding no '%', '+' or ';'.
func nextPlainPair(s string) (pair, string) {
	raw, rest := s, ""
	if i := strings.IndexByte(s, '&'); i >= 0 {
		raw, rest = s[:i], s[i+1:]
	}
	if raw == "" {
		return pair{}, rest
	}
	if i := strings.IndexByte(raw, '='); i >= 0 {
		return pair{k: raw[:i], v: raw[i+1:], ok: true}, rest
	}
	return pair{k: raw, ok: true}, rest
}

// seen reports whether q holds a usable pair whose key decodes to the
// same bytes as the escaped key k.
func (q Query) seen(k string) bool {
	for s := string(q); s != ""; {
		var p pair
		p, s = nextPair(s)
		if p.ok && sameKey(p.k, k) {
			return true
		}
	}
	return false
}

// pair is one '&'-separated element of a query, split at its first '='.
// k and v are still escaped; kEsc and vEsc report whether they hold a
// '%' or '+' to decode. ok is false for the pairs url.ParseQuery drops:
// empty ones, ones holding ';', and ones with an invalid %-escape.
type pair struct {
	k, v       string
	kEsc, vEsc bool
	ok         bool
}

// nextPair splits the first pair off s in one pass and returns it with
// the rest of s.
func nextPair(s string) (pair, string) {
	eq, esc, kEsc := -1, false, false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !pairSpecial[c] {
			continue
		}
		switch c {
		case '&':
			return makePair(s[:i], eq, kEsc, esc), s[i+1:]
		case '=':
			if eq < 0 {
				eq, kEsc, esc = i, esc, false
			}
		case '+':
			esc = true
		case '%':
			// An escape must be two hex digits, the only way
			// url.QueryUnescape can fail.
			if i+2 >= len(s) || !isHex(s[i+1]) || !isHex(s[i+2]) {
				return pair{}, skipPair(s[i:])
			}
			esc = true
			i += 2
		case ';':
			return pair{}, skipPair(s[i:])
		}
	}
	return makePair(s, eq, kEsc, esc), ""
}

// pairSpecial marks the bytes nextPair must look at.
var pairSpecial = [256]bool{'&': true, '=': true, '+': true, '%': true, ';': true}

func makePair(s string, eq int, kEsc, esc bool) pair {
	if s == "" {
		return pair{}
	}
	if eq < 0 {
		return pair{k: s, kEsc: esc, ok: true}
	}
	return pair{k: s[:eq], v: s[eq+1:], kEsc: kEsc, vEsc: esc, ok: true}
}

// skipPair returns what follows the pair s is inside of.
func skipPair(s string) string {
	if i := strings.IndexByte(s, '&'); i >= 0 {
		return s[i+1:]
	}
	return ""
}

// unescapeValid is url.QueryUnescape for a component nextPair accepted;
// it allocates (once) only when esc reports something to decode.
func unescapeValid(s string, esc bool) string {
	if !esc {
		return s
	}
	n := len(s)
	for i := 0; i < len(s); i++ {
		if s[i] == '%' {
			n -= 2
			i += 2
		}
	}
	var sb strings.Builder
	sb.Grow(n)
	for i := 0; i < len(s); {
		c, next := decodeAt(s, i)
		if next == i+1 && c == s[i] {
			// Copy the run of literal bytes up to the next escape.
			j := i + 1
			for j < len(s) && s[j] != '%' && s[j] != '+' {
				j++
			}
			sb.WriteString(s[i:j])
			i = j
			continue
		}
		sb.WriteByte(c)
		i = next
	}
	return sb.String()
}

// decodeAt returns the byte the escaped component s decodes to at i and
// the index of the next one. s must hold only valid escapes.
func decodeAt(s string, i int) (byte, int) {
	switch c := s[i]; c {
	case '+':
		return ' ', i + 1
	case '%':
		return unhex(s[i+1])<<4 | unhex(s[i+2]), i + 3
	default:
		return c, i + 1
	}
}

// sameKey reports whether two escaped components decode to the same
// bytes.
func sameKey(a, b string) bool {
	if a == b {
		return true
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		var ca, cb byte
		ca, i = decodeAt(a, i)
		cb, j = decodeAt(b, j)
		if ca != cb {
			return false
		}
	}
	return i == len(a) && j == len(b)
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func unhex(c byte) byte {
	switch {
	case c <= '9':
		return c - '0'
	case c >= 'a':
		return c - 'a' + 10
	default:
		return c - 'A' + 10
	}
}

// hasControlByte reports whether s contains an ASCII control character
// (the bytes net/url rejects anywhere in a URL). It tests eight bytes at
// a time: every request's URL passes through it.
func hasControlByte(s string) bool {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	i := 0
	for ; i+8 <= len(s); i += 8 {
		w := s[i : i+8]
		x := uint64(w[0]) | uint64(w[1])<<8 | uint64(w[2])<<16 | uint64(w[3])<<24 |
			uint64(w[4])<<32 | uint64(w[5])<<40 | uint64(w[6])<<48 | uint64(w[7])<<56
		// A byte below 0x20 sets its high bit in (x - 0x20..) &^ x; a
		// 0x7f byte is a zero byte of y, found the same way.
		y := x ^ (ones * 0x7f)
		if ((x-ones*0x20)&^x|(y-ones)&^y)&highs != 0 {
			return true
		}
	}
	for ; i < len(s); i++ {
		if s[i] < 0x20 || s[i] == 0x7f {
			return true
		}
	}
	return false
}

// BuildURL returns base with the key/value pairs kv (k1, v1, k2, v2, ...)
// attached as its query, byte-identical to setting them on base's
// url.Values and re-encoding through net/url. Keys must be given in
// strictly increasing order, the order url.Values.Encode writes them
// in. A clean absolute base without a query takes one allocation, for
// the finished URL; any other base goes through net/url.
func BuildURL(base string, kv ...string) string {
	checkPairs(kv)
	// Fast path: a clean absolute base with no query/fragment and nothing
	// net/url would re-normalize — a lower-case scheme (url.URL.String
	// lower-cases schemes) and only bytes url.String leaves untouched in
	// the authority and path.
	if i := strings.Index(base, "://"); i > 0 && isLowerScheme(base[:i]) &&
		isCleanPathBytes(base[i+3:]) && strings.IndexByte(base[i+3:], '/') >= 0 {
		if len(kv) == 0 {
			return base
		}
		var sb strings.Builder
		sb.Grow(len(base) + 1 + encodedLen(kv))
		sb.WriteString(base)
		sb.WriteByte('?')
		writeQuery(&sb, kv)
		return sb.String()
	}
	u, err := url.Parse(base)
	if err != nil {
		return base
	}
	q := u.Query()
	for i := 0; i < len(kv); i += 2 {
		q.Set(kv[i], kv[i+1])
	}
	u.RawQuery = q.Encode() // Encode sorts keys.
	return u.String()
}

// EncodeQuery encodes the pairs kv (keys strictly increasing, as for
// BuildURL) exactly as url.Values.Encode would, in one allocation.
func EncodeQuery(kv ...string) Query {
	checkPairs(kv)
	if len(kv) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.Grow(encodedLen(kv))
	writeQuery(&sb, kv)
	return Query(sb.String())
}

// checkPairs enforces the builders' input contract: a mis-ordered key
// would silently break byte parity with url.Values.Encode.
func checkPairs(kv []string) {
	if len(kv)%2 != 0 {
		//hbvet:allow recoverscope API-misuse precondition: an odd pair list is a caller bug, not visit data
		panic("urlkit: odd key/value list")
	}
	for i := 2; i < len(kv); i += 2 {
		if kv[i] <= kv[i-2] {
			//hbvet:allow recoverscope API-misuse precondition: out-of-order keys are a caller bug, not visit data
			panic("urlkit: query keys not strictly increasing: " + kv[i-2] + ", " + kv[i])
		}
	}
}

// encodedLen is the length of the encoded query of kv.
func encodedLen(kv []string) int {
	n := len(kv) - 1 // one '=' per pair, one '&' between pairs
	for _, s := range kv {
		n += len(s)
		for i := 0; i < len(s); i++ {
			if escaped[s[i]] && s[i] != ' ' {
				n += 2
			}
		}
	}
	return n
}

// writeQuery writes kv as k1=v1&k2=v2..., each component escaped like
// url.QueryEscape.
func writeQuery(sb *strings.Builder, kv []string) {
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			sb.WriteByte('&')
		}
		writeEscaped(sb, kv[i])
		sb.WriteByte('=')
		writeEscaped(sb, kv[i+1])
	}
}

// writeEscaped is url.QueryEscape writing into sb: unreserved bytes pass
// through, ' ' becomes '+', and everything else is %XX (upper-case).
func writeEscaped(sb *strings.Builder, s string) {
	const hex = "0123456789ABCDEF"
	run := 0 // start of the pending pass-through run
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !escaped[c] {
			continue
		}
		sb.WriteString(s[run:i])
		if c == ' ' {
			sb.WriteByte('+')
		} else {
			sb.WriteByte('%')
			sb.WriteByte(hex[c>>4])
			sb.WriteByte(hex[c&15])
		}
		run = i + 1
	}
	sb.WriteString(s[run:])
}

// escaped marks the bytes url.QueryEscape rewrites: all but letters,
// digits and "-_.~".
var escaped = func() (t [256]bool) {
	for c := range t {
		t[c] = !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
			c == '-' || c == '_' || c == '.' || c == '~')
	}
	return t
}()

// Params is a query-parameter set for builders that produce keys out of
// order (per-slot targeting merged with page-level keys). It keeps its
// pairs sorted by key, so URL encodes them without a map or a sort.
// The zero value is an empty set.
type Params struct {
	kv []string // k1, v1, k2, v2, ... with k1 < k2 < ...
}

// find returns the pair index where key is or would be inserted.
func (p *Params) find(key string) (int, bool) {
	lo, hi := 0, len(p.kv)/2
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if p.kv[2*m] < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(p.kv)/2 && p.kv[2*lo] == key
}

// Set sets key to value, replacing any earlier value.
func (p *Params) Set(key, value string) {
	i, ok := p.find(key)
	if ok {
		p.kv[2*i+1] = value
		return
	}
	p.kv = append(p.kv, "", "")
	copy(p.kv[2*i+2:], p.kv[2*i:])
	p.kv[2*i], p.kv[2*i+1] = key, value
}

// Has reports whether key is set.
func (p *Params) Has(key string) bool {
	_, ok := p.find(key)
	return ok
}

// URL returns base with the set attached as its query (see BuildURL).
func (p *Params) URL(base string) string { return BuildURL(base, p.kv...) }
