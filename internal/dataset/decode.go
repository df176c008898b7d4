// Zero-reflection decoder for the JSONL line shape Writer emits.
//
// hbreport's ingest is one json.Unmarshal per line into a SiteRecord, and
// on an HB-heavy crawl that reflect-driven walk is most of the ingest's
// CPU (PERF.md, fourth pass). The record shape is closed — this package
// owns SiteRecord and Writer is the only producer — so ReadStream decodes
// the exact shape by hand, the way internal/rtb's codec decodes the
// OpenRTB bodies (DESIGN.md §5.2, §5.4):
//
//   - The scanner accepts only what it recognizes with certainty: the
//     struct tags' exact keys, each at most once per object; strings
//     without escapes or control bytes and with valid UTF-8; bools;
//     strict-grammar numbers, with int fields limited to plain integer
//     literals of at most 18 digits; and nothing after the closing brace
//     but whitespace. An unknown, case-folded or duplicate key (map keys
//     included), a null, an escape, invalid UTF-8, a fractional or
//     exponent literal in an int field or a trailing byte makes it report
//     false, and ReadStream decodes that line with json.Unmarshal into a
//     fresh zero record. Every line therefore gets exactly the value and
//     error it got from encoding/json: the fast path never guesses.
//
//   - Strings are copied out of the scanner's buffer. Strings from closed
//     vocabularies (partner slugs, sizes, sources, facets, libraries, ad
//     unit codes) go through a per-stream intern table with a fixed cap,
//     so a long ingest allocates each of them once. A record's auction
//     IDs share one string, its three string lists one backing array, its
//     auctions, bids and latency samples one array each; sub-slices are
//     capacity-capped, so a consumer appending to one never writes into
//     another.
//
//   - Scratch slices are reused across lines. A line with more than
//     maxElems auctions, bids, list strings, latency samples or map keys
//     is left to json, so the scratch a stream keeps stays near 1.5 MiB
//     and the fast path never allocates more for a line than json would.
package dataset

import (
	"strconv"
	"strings"
	"unicode/utf8"
)

// Intern-table bounds: at most internCap entries, each at most
// internMaxLen bytes, so the table stays under ~256 KiB whatever the
// input holds. A string past either bound is copied, not interned.
const (
	internCap    = 4096
	internMaxLen = 64
)

// maxElems caps each of a line's element kinds on the fast path. Real
// lines hold under a hundred of each (at most 88 auctions in the
// 34-day crawl); json decodes anything larger.
const maxElems = 1 << 12

// maxIntDigits keeps hand-parsed ints clear of overflow; a longer
// literal (valid or not) goes to json, which decides.
const maxIntDigits = 18

// span is a half-open range into one of the decoder's scratch slices;
// set distinguishes a present-but-empty JSON array from an absent key,
// which json decodes to an empty non-nil slice and nil respectively.
type span struct {
	lo, hi int
	set    bool
}

// sub returns s's range of all: nil when the key was absent, an empty
// non-nil slice for [], and a capacity-capped window otherwise.
func sub[T any](all []T, s span) []T {
	switch {
	case !s.set:
		return nil
	case s.lo == s.hi:
		return []T{}
	}
	return all[s.lo:s.hi:s.hi]
}

// auctionSpans holds the parts of one scratch auction that are built at
// record end: its ID (a range of the line) and its bids.
type auctionSpans struct {
	id   span
	bids span
}

// recordDecoder is one stream's line decoder. The zero value is ready.
type recordDecoder struct {
	b []byte
	i int

	intern map[string]string

	// Per-line scratch, truncated at the start of every line.
	strs     []string // libraries, partners and winners
	auctions []AuctionRecord
	aspans   []auctionSpans
	bids     []BidRecord
	floats   []float64
	latKeys  []string
	latVals  []span // ranges of floats
	errKeys  []string
	errVals  []int
}

// decode parses one line into rec, which must be zero. It reports false
// — leaving rec partly written — on any input it does not fully
// recognize; the caller then decodes the line with encoding/json.
func (d *recordDecoder) decode(line []byte, rec *SiteRecord) bool {
	d.b, d.i = line, 0
	d.strs, d.auctions, d.aspans, d.bids, d.floats = d.strs[:0], d.auctions[:0], d.aspans[:0], d.bids[:0], d.floats[:0]
	d.latKeys, d.latVals, d.errKeys, d.errVals = d.latKeys[:0], d.latVals[:0], d.errKeys[:0], d.errVals[:0]

	var libs, partners, winners span
	var seen uint32 // one bit per key, in SiteRecord's field order
	d.ws()
	if !d.eat('{') {
		return false
	}
	d.ws()
	if !d.eat('}') {
		for {
			d.ws()
			key, ok := d.raw()
			if !ok {
				return false
			}
			d.ws()
			if !d.eat(':') {
				return false
			}
			d.ws()
			var bit uint32
			switch string(key) {
			case "domain":
				bit = 1 << 0
				rec.Domain, ok = d.copied()
			case "rank":
				bit = 1 << 1
				rec.Rank, ok = d.int()
			case "visit_day":
				bit = 1 << 2
				rec.VisitDay, ok = d.int()
			case "hb":
				bit = 1 << 3
				rec.HB, ok = d.bool()
			case "facet":
				bit = 1 << 4
				rec.Facet, ok = d.vocab()
			case "libraries":
				bit = 1 << 5
				libs, ok = d.strList()
			case "partners":
				bit = 1 << 6
				partners, ok = d.strList()
			case "winners":
				bit = 1 << 7
				winners, ok = d.strList()
			case "auctions":
				bit = 1 << 8
				ok = d.auctionList()
			case "hb_latency_ms":
				bit = 1 << 9
				rec.TotalHBLatencyMS, ok = d.float()
			case "ad_slots":
				bit = 1 << 10
				rec.AdSlotsAuctioned, ok = d.int()
			case "partner_latency_ms":
				bit = 1 << 11
				ok = d.latencyMap()
			case "traffic":
				bit = 1 << 12
				ok = d.traffic(&rec.Traffic)
			case "partner_errors":
				bit = 1 << 13
				ok = d.errorMap()
			case "retries":
				bit = 1 << 14
				rec.Retries, ok = d.int()
			case "abandoned":
				bit = 1 << 15
				rec.Abandoned, ok = d.int()
			case "quarantined":
				bit = 1 << 16
				rec.Quarantined, ok = d.bool()
			case "panic_site":
				bit = 1 << 17
				rec.PanicSite, ok = d.copied()
			case "loaded":
				bit = 1 << 18
				rec.Loaded, ok = d.bool()
			case "timed_out":
				bit = 1 << 19
				rec.TimedOut, ok = d.bool()
			case "err":
				bit = 1 << 20
				rec.Err, ok = d.copied()
			default:
				return false
			}
			if !ok || seen&bit != 0 {
				return false
			}
			seen |= bit
			d.ws()
			if d.eat(',') {
				continue
			}
			if d.eat('}') {
				break
			}
			return false
		}
	}
	d.ws()
	if d.i != len(d.b) {
		return false
	}
	if seen&(1<<11) != 0 && !d.buildLatency(rec) {
		return false
	}
	if seen&(1<<13) != 0 && !d.buildErrors(rec) {
		return false
	}

	var strs []string
	if len(d.strs) > 0 {
		strs = make([]string, len(d.strs))
		copy(strs, d.strs)
	}
	rec.Libraries, rec.Partners, rec.Winners = sub(strs, libs), sub(strs, partners), sub(strs, winners)
	if seen&(1<<8) != 0 {
		rec.Auctions = d.buildAuctions()
	}
	return true
}

// buildAuctions copies the scratch auctions into the record's own slice,
// attaching each auction's ID from one shared string and its bids from
// one shared array.
func (d *recordDecoder) buildAuctions() []AuctionRecord {
	if len(d.auctions) == 0 {
		return []AuctionRecord{}
	}
	out := make([]AuctionRecord, len(d.auctions))
	copy(out, d.auctions)
	var bids []BidRecord
	if len(d.bids) > 0 {
		bids = make([]BidRecord, len(d.bids))
		copy(bids, d.bids)
	}
	n := 0
	for _, sp := range d.aspans {
		n += sp.id.hi - sp.id.lo
	}
	var ids strings.Builder
	ids.Grow(n)
	for _, sp := range d.aspans {
		ids.Write(d.b[sp.id.lo:sp.id.hi])
	}
	all, at := ids.String(), 0
	for k, sp := range d.aspans {
		n := sp.id.hi - sp.id.lo
		out[k].ID = all[at : at+n]
		at += n
		out[k].Bids = sub(bids, sp.bids)
	}
	return out
}

// buildLatency materializes partner_latency_ms; a repeated key (which
// json resolves last-wins) shows as a short map and reports false.
func (d *recordDecoder) buildLatency(rec *SiteRecord) bool {
	var floats []float64
	if len(d.floats) > 0 {
		floats = make([]float64, len(d.floats))
		copy(floats, d.floats)
	}
	m := make(map[string][]float64, len(d.latKeys))
	for k, key := range d.latKeys {
		m[key] = sub(floats, d.latVals[k])
	}
	rec.PartnerLatencyMS = m
	return len(m) == len(d.latKeys)
}

// buildErrors materializes partner_errors, refusing repeated keys as
// buildLatency does.
func (d *recordDecoder) buildErrors(rec *SiteRecord) bool {
	m := make(map[string]int, len(d.errKeys))
	for k, key := range d.errKeys {
		m[key] = d.errVals[k]
	}
	rec.PartnerErrors = m
	return len(m) == len(d.errKeys)
}

// auctionList parses the auctions array into d.auctions, with each
// auction's ID and bids recorded in d.aspans.
func (d *recordDecoder) auctionList() bool {
	if !d.eat('[') {
		return false
	}
	d.ws()
	if d.eat(']') {
		return true
	}
	for {
		d.ws()
		if len(d.auctions) == maxElems {
			return false
		}
		d.auctions = append(d.auctions, AuctionRecord{})
		d.aspans = append(d.aspans, auctionSpans{})
		k := len(d.auctions) - 1
		if !d.auction(&d.auctions[k], &d.aspans[k]) {
			return false
		}
		d.ws()
		if d.eat(',') {
			continue
		}
		return d.eat(']')
	}
}

func (d *recordDecoder) auction(a *AuctionRecord, sp *auctionSpans) bool {
	if !d.eat('{') {
		return false
	}
	d.ws()
	if d.eat('}') {
		return true
	}
	var seen uint16
	for {
		d.ws()
		key, ok := d.raw()
		if !ok {
			return false
		}
		d.ws()
		if !d.eat(':') {
			return false
		}
		d.ws()
		var bit uint16
		switch string(key) {
		case "id":
			bit = 1 << 0
			lo := d.i + 1
			if _, ok = d.raw(); ok {
				sp.id = span{lo: lo, hi: d.i - 1}
			}
		case "ad_unit":
			bit = 1 << 1
			a.AdUnit, ok = d.vocab()
		case "size":
			bit = 1 << 2
			a.Size, ok = d.vocab()
		case "duration_ms":
			bit = 1 << 3
			a.DurationMS, ok = d.float()
		case "bids":
			bit = 1 << 4
			sp.bids, ok = d.bidList()
		case "winner":
			bit = 1 << 5
			a.Winner, ok = d.vocab()
		case "winner_cpm":
			bit = 1 << 6
			a.WinnerCPM, ok = d.float()
		case "rendered":
			bit = 1 << 7
			a.Rendered, ok = d.bool()
		case "failed":
			bit = 1 << 8
			a.Failed, ok = d.bool()
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		d.ws()
		if d.eat(',') {
			continue
		}
		return d.eat('}')
	}
}

func (d *recordDecoder) bidList() (span, bool) {
	if !d.eat('[') {
		return span{}, false
	}
	lo := len(d.bids)
	d.ws()
	if d.eat(']') {
		return span{lo: lo, hi: lo, set: true}, true
	}
	for {
		d.ws()
		if len(d.bids) == maxElems {
			return span{}, false
		}
		d.bids = append(d.bids, BidRecord{})
		if !d.bid(&d.bids[len(d.bids)-1]) {
			return span{}, false
		}
		d.ws()
		if d.eat(',') {
			continue
		}
		if d.eat(']') {
			return span{lo: lo, hi: len(d.bids), set: true}, true
		}
		return span{}, false
	}
}

func (d *recordDecoder) bid(b *BidRecord) bool {
	if !d.eat('{') {
		return false
	}
	d.ws()
	if d.eat('}') {
		return true
	}
	var seen uint8
	for {
		d.ws()
		key, ok := d.raw()
		if !ok {
			return false
		}
		d.ws()
		if !d.eat(':') {
			return false
		}
		d.ws()
		var bit uint8
		switch string(key) {
		case "bidder":
			bit = 1 << 0
			b.Bidder, ok = d.vocab()
		case "cpm":
			bit = 1 << 1
			b.CPM, ok = d.float()
		case "size":
			bit = 1 << 2
			b.Size, ok = d.vocab()
		case "late":
			bit = 1 << 3
			b.Late, ok = d.bool()
		case "latency_ms":
			bit = 1 << 4
			b.LatencyMS, ok = d.float()
		case "source":
			bit = 1 << 5
			b.Source, ok = d.vocab()
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		d.ws()
		if d.eat(',') {
			continue
		}
		return d.eat('}')
	}
}

func (d *recordDecoder) traffic(t *TrafficRecord) bool {
	if !d.eat('{') {
		return false
	}
	d.ws()
	if d.eat('}') {
		return true
	}
	var seen uint8
	for {
		d.ws()
		key, ok := d.raw()
		if !ok {
			return false
		}
		d.ws()
		if !d.eat(':') {
			return false
		}
		d.ws()
		var bit uint8
		switch string(key) {
		case "bid_requests":
			bit = 1 << 0
			t.BidRequests, ok = d.int()
		case "hosted_calls":
			bit = 1 << 1
			t.HostedCalls, ok = d.int()
		case "ad_server":
			bit = 1 << 2
			t.AdServer, ok = d.int()
		case "creatives":
			bit = 1 << 3
			t.Creatives, ok = d.int()
		case "beacons":
			bit = 1 << 4
			t.Beacons, ok = d.int()
		case "scripts":
			bit = 1 << 5
			t.Scripts, ok = d.int()
		case "other":
			bit = 1 << 6
			t.Other, ok = d.int()
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		d.ws()
		if d.eat(',') {
			continue
		}
		return d.eat('}')
	}
}

// strList parses an array of strings into d.strs.
func (d *recordDecoder) strList() (span, bool) {
	if !d.eat('[') {
		return span{}, false
	}
	lo := len(d.strs)
	d.ws()
	if d.eat(']') {
		return span{lo: lo, hi: lo, set: true}, true
	}
	for {
		d.ws()
		s, ok := d.vocab()
		if !ok || len(d.strs) == maxElems {
			return span{}, false
		}
		d.strs = append(d.strs, s)
		d.ws()
		if d.eat(',') {
			continue
		}
		if d.eat(']') {
			return span{lo: lo, hi: len(d.strs), set: true}, true
		}
		return span{}, false
	}
}

// latencyMap parses partner_latency_ms into d.latKeys/d.latVals; the
// map itself is built once the whole line has parsed.
func (d *recordDecoder) latencyMap() bool {
	return d.object(func() bool {
		lo := len(d.floats)
		if !d.eat('[') {
			return false
		}
		d.ws()
		if !d.eat(']') {
			for {
				d.ws()
				f, ok := d.float()
				if !ok || len(d.floats) == maxElems {
					return false
				}
				d.floats = append(d.floats, f)
				d.ws()
				if d.eat(',') {
					continue
				}
				if d.eat(']') {
					break
				}
				return false
			}
		}
		d.latVals = append(d.latVals, span{lo: lo, hi: len(d.floats), set: true})
		return true
	}, &d.latKeys)
}

// errorMap parses partner_errors into d.errKeys/d.errVals.
func (d *recordDecoder) errorMap() bool {
	return d.object(func() bool {
		n, ok := d.int()
		d.errVals = append(d.errVals, n)
		return ok
	}, &d.errKeys)
}

// object parses a string-keyed JSON object, appending each key to
// *keys and parsing its value with val.
func (d *recordDecoder) object(val func() bool, keys *[]string) bool {
	if !d.eat('{') {
		return false
	}
	d.ws()
	if d.eat('}') {
		return true
	}
	for {
		d.ws()
		key, ok := d.vocab()
		if !ok || len(*keys) == maxElems {
			return false
		}
		*keys = append(*keys, key)
		d.ws()
		if !d.eat(':') {
			return false
		}
		d.ws()
		if !val() {
			return false
		}
		d.ws()
		if d.eat(',') {
			continue
		}
		return d.eat('}')
	}
}

func (d *recordDecoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

func (d *recordDecoder) eat(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// raw scans a string token with no escapes, no control bytes and valid
// UTF-8, returning its contents as a window of the line (valid only
// until the next line). json would unescape the first and rewrite the
// last to U+FFFD, so both report false.
func (d *recordDecoder) raw() ([]byte, bool) {
	if !d.eat('"') {
		return nil, false
	}
	start := d.i
	for d.i < len(d.b) {
		c := d.b[d.i]
		switch {
		case plain[c]:
			d.i++
		case c == '"':
			s := d.b[start:d.i]
			d.i++
			return s, true
		case c < utf8.RuneSelf: // a backslash or a control byte
			return nil, false
		default:
			r, size := utf8.DecodeRune(d.b[d.i:])
			if r == utf8.RuneError && size == 1 {
				return nil, false
			}
			d.i += size
		}
	}
	return nil, false
}

// plain marks the ASCII bytes a string token carries verbatim: printable
// and neither the closing quote nor an escape.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// copied decodes a string field into a fresh copy.
func (d *recordDecoder) copied() (string, bool) {
	s, ok := d.raw()
	if !ok {
		return "", false
	}
	return string(s), true
}

// vocab decodes a string field through the intern table.
func (d *recordDecoder) vocab() (string, bool) {
	s, ok := d.raw()
	if !ok {
		return "", false
	}
	if v, hit := d.intern[string(s)]; hit {
		return v, true
	}
	v := string(s)
	if len(s) <= internMaxLen && len(d.intern) < internCap {
		if d.intern == nil {
			d.intern = make(map[string]string, 256)
		}
		d.intern[v] = v
	}
	return v, true
}

func (d *recordDecoder) bool() (bool, bool) {
	if d.lit("true") {
		return true, true
	}
	return false, d.lit("false")
}

func (d *recordDecoder) lit(kw string) bool {
	if len(d.b)-d.i >= len(kw) && string(d.b[d.i:d.i+len(kw)]) == kw {
		d.i += len(kw)
		return true
	}
	return false
}

func (d *recordDecoder) digit() bool {
	return d.i < len(d.b) && d.b[d.i] >= '0' && d.b[d.i] <= '9'
}

// int decodes an int field: an optional minus, then 0 or a digit run not
// starting with 0, of at most maxIntDigits digits. json's literalStore
// runs ParseInt, so a fraction or exponent (1.0, 1e2) is a decode error
// there; those report false here (the next expected byte is missing) and
// the fallback reproduces the error.
func (d *recordDecoder) int() (int, bool) {
	neg := d.eat('-')
	if !d.digit() {
		return 0, false
	}
	if d.eat('0') {
		return 0, !d.digit() && !d.fracOrExp()
	}
	start, n := d.i, 0
	for d.digit() {
		n = n*10 + int(d.b[d.i]-'0')
		d.i++
	}
	if d.i-start > maxIntDigits || d.fracOrExp() {
		return 0, false
	}
	if neg {
		n = -n
	}
	return n, true
}

func (d *recordDecoder) fracOrExp() bool {
	if d.i >= len(d.b) {
		return false
	}
	c := d.b[d.i]
	return c == '.' || c == 'e' || c == 'E'
}

// float decodes a float field: one number in the strict JSON grammar,
// converted as json's literalStore converts it, by strconv.ParseFloat;
// an out-of-range literal (a json error) reports false. A literal of at
// most 15 digits and no exponent is converted inline, as mantissa /
// 10^fraction-digits: both operands are exact in a float64, so the one
// correctly rounded division is the value ParseFloat's own exact path
// returns for it.
func (d *recordDecoder) float() (float64, bool) {
	start := d.i
	neg := d.eat('-')
	var mant uint64
	digits, frac := 0, 0
	switch {
	case d.eat('0'):
		digits = 1
	case d.digit():
		for ; d.digit(); d.i++ {
			mant = mant*10 + uint64(d.b[d.i]-'0')
			digits++
		}
	default:
		return 0, false
	}
	if d.eat('.') {
		if !d.digit() {
			return 0, false
		}
		for ; d.digit(); d.i++ {
			mant = mant*10 + uint64(d.b[d.i]-'0')
			digits++
			frac++
		}
	}
	if d.i < len(d.b) && (d.b[d.i] == 'e' || d.b[d.i] == 'E') {
		d.i++
		if d.i < len(d.b) && (d.b[d.i] == '+' || d.b[d.i] == '-') {
			d.i++
		}
		if !d.digit() {
			return 0, false
		}
		for d.digit() {
			d.i++
		}
	} else if digits <= 15 {
		f := float64(mant)
		if frac > 0 {
			f /= pow10[frac]
		}
		if neg {
			f = -f
		}
		return f, true
	}
	f, err := strconv.ParseFloat(string(d.b[start:d.i]), 64)
	return f, err == nil
}

// pow10 holds the powers of ten float's inline path divides by, all
// exact in a float64.
var pow10 = [16]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}
