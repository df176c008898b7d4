package obs

// The operator-facing HTTP surface. This file is the observability
// layer's one sanctioned wall-clock consumer (uptime, latency
// histograms, live counter snapshots are inherently wall-time
// concepts); every such use carries an //hbvet:allow detwall directive.
// Nothing here runs inside a visit — the virtual timeline never sees
// this code.

import (
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"
)

// NewDebugMux builds the expvar-style debug surface for a crawl:
//
//	/healthz        liveness probe
//	/debug/vars     merged telemetry counters as flat JSON
//	/debug/pprof/*  the standard runtime profiles
//
// reg may be nil (counters read as zero). The mux is what `hbcrawl
// -obs :6060` serves.
func NewDebugMux(reg *Registry) *http.ServeMux {
	// Uptime anchor for /debug/vars; operator wall time, not simulation time.
	//hbvet:allow detwall operator-facing uptime is wall-clock by definition
	start := time.Now()
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		buf := make([]byte, 0, 512)
		buf = append(buf, `{"uptime_sec":`...)
		//hbvet:allow detwall operator-facing uptime is wall-clock by definition
		buf = strconv.AppendFloat(buf, time.Since(start).Seconds(), 'f', 1, 64)
		buf = append(buf, `,"counters":`...)
		buf = reg.Totals().AppendJSON(buf)
		buf = append(buf, "}\n"...)
		w.Write(buf)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ReadHeaderTimeout bounds how long the operator-facing servers (the
// debug surface here and livenet's hbserve) wait for a client to finish
// sending request headers. Without it, a client that trickles header
// bytes holds a connection and its goroutine open indefinitely — the
// slow-loris attack the simulator models against bidders.
const ReadHeaderTimeout = 10 * time.Second

// Serve binds the debug surface on addr and serves it in the
// background. Returns the server (Close to stop) and the bound address
// (useful with ":0"). The listener error surfaces immediately;
// per-connection errors are the server's business.
func Serve(addr string, reg *Registry) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: NewDebugMux(reg), ReadHeaderTimeout: ReadHeaderTimeout}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}

// EndpointClass buckets livenet requests for the per-endpoint latency
// histograms on hbserve's /metrics.
type EndpointClass uint8

const (
	ClassPartner EndpointClass = iota
	ClassSite
	ClassCreative
	ClassCDN
	ClassOther
	numEndpointClasses
)

var endpointClassNames = [numEndpointClasses]string{
	"partner", "site", "creative", "cdn", "other",
}

// String names the class — the label value used on /metrics and in
// access-log lines.
func (c EndpointClass) String() string {
	if int(c) < len(endpointClassNames) {
		return endpointClassNames[c]
	}
	return "other"
}

// latencyBounds are the fixed histogram bucket upper bounds. Loopback
// handlers land in the sub-millisecond buckets; the tail covers a
// loaded box.
var latencyBounds = [...]time.Duration{
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	time.Second,
	2500 * time.Millisecond,
}

// Histogram is a fixed-bucket latency histogram. Concurrency-safe:
// handler goroutines Observe, the /metrics reader snapshots.
type Histogram struct {
	counts    [len(latencyBounds) + 1]atomic.Uint64
	sumMicros atomic.Uint64
	total     atomic.Uint64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := 0
	for ; i < len(latencyBounds); i++ {
		if d <= latencyBounds[i] {
			break
		}
	}
	h.counts[i].Add(1)
	h.sumMicros.Add(uint64(d.Microseconds()))
	h.total.Add(1)
}

// ServerStats is livenet's operational telemetry: request totals and
// per-endpoint-class latency histograms, rendered as Prometheus text.
type ServerStats struct {
	start    time.Time
	requests atomic.Uint64
	hist     [numEndpointClasses]Histogram
}

// NewServerStats anchors a stats block at the current wall time.
func NewServerStats() *ServerStats {
	//hbvet:allow detwall server uptime is wall-clock by definition
	return &ServerStats{start: time.Now()}
}

// Observe records one served request of the given class.
func (s *ServerStats) Observe(c EndpointClass, d time.Duration) {
	if s == nil {
		return
	}
	if c >= numEndpointClasses {
		c = ClassOther
	}
	s.requests.Add(1)
	s.hist[c].Observe(d)
}

// Requests returns the number of requests observed so far.
func (s *ServerStats) Requests() uint64 {
	if s == nil {
		return 0
	}
	return s.requests.Load()
}

// WriteProm renders the stats in Prometheus text exposition format.
func (s *ServerStats) WriteProm(w io.Writer) {
	buf := make([]byte, 0, 4096)
	buf = append(buf, "# HELP hbserve_uptime_seconds Wall-clock seconds since server start.\n"...)
	buf = append(buf, "# TYPE hbserve_uptime_seconds gauge\n"...)
	buf = append(buf, "hbserve_uptime_seconds "...)
	//hbvet:allow detwall server uptime is wall-clock by definition
	buf = strconv.AppendFloat(buf, time.Since(s.start).Seconds(), 'f', 3, 64)
	buf = append(buf, '\n')
	buf = append(buf, "# HELP hbserve_requests_total Requests served, all endpoints.\n"...)
	buf = append(buf, "# TYPE hbserve_requests_total counter\n"...)
	buf = append(buf, "hbserve_requests_total "...)
	buf = strconv.AppendUint(buf, s.requests.Load(), 10)
	buf = append(buf, '\n')
	buf = append(buf, "# HELP hbserve_request_duration_seconds Request latency by endpoint class.\n"...)
	buf = append(buf, "# TYPE hbserve_request_duration_seconds histogram\n"...)
	for ci := range s.hist {
		h := &s.hist[ci]
		class := endpointClassNames[ci]
		cum := uint64(0)
		for bi := range latencyBounds {
			cum += h.counts[bi].Load()
			buf = append(buf, `hbserve_request_duration_seconds_bucket{class="`...)
			buf = append(buf, class...)
			buf = append(buf, `",le="`...)
			buf = strconv.AppendFloat(buf, latencyBounds[bi].Seconds(), 'g', -1, 64)
			buf = append(buf, `"} `...)
			buf = strconv.AppendUint(buf, cum, 10)
			buf = append(buf, '\n')
		}
		cum += h.counts[len(latencyBounds)].Load()
		buf = append(buf, `hbserve_request_duration_seconds_bucket{class="`...)
		buf = append(buf, class...)
		buf = append(buf, `",le="+Inf"} `...)
		buf = strconv.AppendUint(buf, cum, 10)
		buf = append(buf, '\n')
		buf = append(buf, `hbserve_request_duration_seconds_sum{class="`...)
		buf = append(buf, class...)
		buf = append(buf, `"} `...)
		buf = strconv.AppendFloat(buf, float64(h.sumMicros.Load())/1e6, 'f', 6, 64)
		buf = append(buf, '\n')
		buf = append(buf, `hbserve_request_duration_seconds_count{class="`...)
		buf = append(buf, class...)
		buf = append(buf, `"} `...)
		buf = strconv.AppendUint(buf, cum, 10)
		buf = append(buf, '\n')
	}
	w.Write(buf)
}
