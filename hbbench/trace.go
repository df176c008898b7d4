package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"headerbid"
	// Named only for the type of CrawlConfig.VisitHook's first parameter.
	"headerbid/internal/simnet"
)

// A span is one timed interval at a layer boundary, recorded by the
// benchmark around a call into the program. Times are nanoseconds since
// the tracer's epoch; Parent is 0 for a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory for one rep; they are written once, when
// the rep ends. A nil *tracer is the untraced run: every method is a
// no-op, so workload code calls it unconditionally.
type tracer struct {
	run   string
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer {
	//hbvet:allow detwall benchmark span epoch; wall time is what the benchmark measures and never reaches program output
	return &tracer{run: run, epoch: time.Now()}
}

// now is the tracer clock (0 on a nil tracer).
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	//hbvet:allow detwall benchmark span clock; wall time is what the benchmark measures
	return int64(time.Since(t.epoch))
}

// add records a finished span and returns its ID (0 on a nil tracer).
func (t *tracer) add(parent int, name string, start, end int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: start, End: end})
	return id
}

// begin opens a span whose end is set later with finish; the span gets
// its ID up front so children can name it as their parent.
func (t *tracer) begin(parent int, name string) int {
	if t == nil {
		return 0
	}
	return t.add(parent, name, t.now(), -1)
}

func (t *tracer) finish(id int) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(parent int, name string, fn func(id int)) {
	id := t.begin(parent, name)
	fn(id)
	t.finish(id)
}

// named returns the spans with the given name (none on a nil tracer).
func (t *tracer) named(name string) []span {
	if t == nil {
		return nil
	}
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// meanMS is the mean duration of the spans with the given name, in ms
// (0 when there are none).
func (t *tracer) meanMS(name string) float64 {
	ss := t.named(name)
	if len(ss) == 0 {
		return 0
	}
	var ns int64
	for _, s := range ss {
		ns += s.dur()
	}
	return float64(ns) / 1e6 / float64(len(ss))
}

// selfNS is the span's duration minus the part of its interval that its
// child spans cover. Children may overlap (visits on parallel workers),
// so the covered part is the union of their intervals, clipped to the
// parent.
func selfNS(spans []span, id int) int64 {
	var p span
	var kids [][2]int64
	for _, s := range spans {
		if s.ID == id {
			p = s
		}
	}
	for _, s := range spans {
		if s.Parent == id {
			a, b := max(s.Start, p.Start), min(s.End, p.End)
			if b > a {
				kids = append(kids, [2]int64{a, b})
			}
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i][0] < kids[j][0] })
	var covered, curA, curB int64
	open := false
	for _, k := range kids {
		switch {
		case !open:
			curA, curB, open = k[0], k[1], true
		case k[0] <= curB:
			curB = max(curB, k[1])
		default:
			covered += curB - curA
			curA, curB = k[0], k[1]
		}
	}
	if open {
		covered += curB - curA
	}
	return p.dur() - covered
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---------------------------------------------------------------------------
// Visit probes: per-visit timing from the crawler's public hooks.
// ---------------------------------------------------------------------------

// visitStarts takes each visit's start from CrawlConfig.VisitHook, which
// the crawler calls on the worker at the start of every visit (after the
// visit's network is reset and its hosts are installed), and hands it to
// the probe that folds that visit's record. Visits are keyed by (day,
// rank). A sweep shares one hook across variants running concurrently,
// so a key can hold more than one open visit; those are paired first in,
// first out.
type visitStarts struct {
	tr *tracer

	mu   sync.Mutex
	open map[[2]int][]int64
}

func newVisitStarts(tr *tracer) *visitStarts {
	return &visitStarts{tr: tr, open: make(map[[2]int][]int64)}
}

// hook is the CrawlConfig.VisitHook of a traced rep.
func (v *visitStarts) hook(_ *simnet.Network, s *headerbid.Site, day int) {
	now := v.tr.now()
	k := [2]int{day, s.Rank}
	v.mu.Lock()
	v.open[k] = append(v.open[k], now)
	v.mu.Unlock()
}

// take returns the start of the oldest open visit of (day, rank).
func (v *visitStarts) take(day, rank int) (int64, bool) {
	k := [2]int{day, rank}
	v.mu.Lock()
	defer v.mu.Unlock()
	q := v.open[k]
	if len(q) == 0 {
		return 0, false
	}
	if len(q) == 1 {
		delete(v.open, k)
	} else {
		v.open[k] = q[1:]
	}
	return q[0], true
}

// A lane is one worker shard's view of the crawl. The crawler folds
// each record on the worker that produced it, and calls on one shard are
// serialized, so a lane needs no lock. A worker's time splits into
// visits (hook to the start probe), folds (start probe to end probe) and
// hand-offs: from the end of a fold to the next visit's hook, the worker
// hands the record to the ordered emit path, waits for its next job and
// resets the pooled runtime for it.
type lane struct {
	tr      *tracer
	lastEnd int64 // end of the previous fold
	day     int   // day of the previous fold, -1 before the first

	foldStart int64
	visits    []visitSample
	folds     []int64 // ns per record between the two probes
	handoffs  []int64 // ns from a fold's end to the next visit's start, same day
	unpaired  int     // records whose visit start the hook did not see
}

type visitSample struct {
	day        int
	hb         bool
	start, end int64 // ns on the tracer clock
}

// visitProbe is a Metric attached first among the run's metrics: its Add
// marks the end of a visit. foldEnd, attached last, marks the end of
// that record's fold through the metrics in between. Neither changes a
// record; both exist only in traced runs.
type visitProbe struct {
	p    *probeSet
	lane *lane
}

type foldEnd struct {
	p    *probeSet
	lane *lane
}

// probeSet owns the lanes of one crawl and the fold timestamps the
// emit probe reads.
type probeSet struct {
	tr     *tracer
	parent int
	starts *visitStarts

	mu    sync.Mutex
	lanes []*lane
	ends  int              // foldEnd shards created so far
	fold  map[[2]int]int64 // (day, rank) -> fold end, for emit wait
	emits []int64          // emit wait per record, ns
}

func newProbeSet(tr *tracer, parent int, starts *visitStarts) *probeSet {
	return &probeSet{tr: tr, parent: parent, starts: starts, fold: make(map[[2]int]int64)}
}

func (p *probeSet) newLane() *lane {
	p.mu.Lock()
	defer p.mu.Unlock()
	l := &lane{tr: p.tr, day: -1}
	p.lanes = append(p.lanes, l)
	return l
}

// metrics returns the start and end probes to attach around the
// run's metrics.
func (p *probeSet) metrics() (headerbid.Metric, headerbid.Metric) {
	return &visitProbe{p: p}, &foldEnd{p: p}
}

func (m *visitProbe) Name() string { return "bench_visit_probe" }

// NewShard opens a lane. The crawl creates one shard per worker, so
// lanes and workers correspond one to one.
func (m *visitProbe) NewShard() headerbid.Metric { return &visitProbe{p: m.p, lane: m.p.newLane()} }

func (m *visitProbe) Add(r *headerbid.SiteRecord) {
	l := m.lane
	now := l.tr.now()
	start, ok := m.p.starts.take(r.VisitDay, r.Rank)
	switch {
	case !ok:
		l.unpaired++
	case l.day == r.VisitDay:
		// Across a day boundary the gap also holds the wait for every
		// worker to finish the previous day: not a hand-off.
		l.handoffs = append(l.handoffs, start-l.lastEnd)
		fallthrough
	default:
		l.visits = append(l.visits, visitSample{day: r.VisitDay, hb: r.HB, start: start, end: now})
	}
	l.day = r.VisitDay
	// A fold probe, when attached, moves lastEnd to the end of the fold.
	l.foldStart, l.lastEnd = now, now
}

func (m *visitProbe) Merge(headerbid.Metric) {}
func (m *visitProbe) Snapshot() any          { return nil }

func (m *foldEnd) Name() string { return "bench_fold_probe" }

// NewShard binds to the lane the matching visitProbe shard opened: the
// crawl creates every metric's shard for worker i before worker i+1's.
func (m *foldEnd) NewShard() headerbid.Metric {
	m.p.mu.Lock()
	defer m.p.mu.Unlock()
	l := m.p.lanes[m.p.ends]
	m.p.ends++
	return &foldEnd{p: m.p, lane: l}
}

func (m *foldEnd) Add(r *headerbid.SiteRecord) {
	l := m.lane
	now := l.tr.now()
	l.folds = append(l.folds, now-l.foldStart)
	l.lastEnd = now
	m.p.mu.Lock()
	m.p.fold[[2]int{r.VisitDay, r.Rank}] = now
	m.p.mu.Unlock()
}

func (m *foldEnd) Merge(headerbid.Metric) {}
func (m *foldEnd) Snapshot() any          { return nil }

// emitSink is an ordered sink attached after the program's sinks: the
// time from a record's fold to its emission is the wait the reorder
// window and the ordered sinks impose.
func (p *probeSet) emitSink() headerbid.Sink {
	return headerbid.SinkFunc(func(v headerbid.Visit) error {
		now := p.tr.now()
		p.mu.Lock()
		if at, ok := p.fold[[2]int{v.Day, v.Record.Rank}]; ok {
			p.emits = append(p.emits, now-at)
			delete(p.fold, [2]int{v.Day, v.Record.Rank})
		}
		p.mu.Unlock()
		return nil
	})
}

// flush turns the lanes' visits into spans under the probe's parent.
func (p *probeSet) flush() {
	for _, l := range p.lanes {
		for _, v := range l.visits {
			name := "crawler.visit.nonhb"
			if v.hb {
				name = "crawler.visit.hb"
			}
			p.tr.add(p.parent, name, v.start, v.end)
		}
	}
}

// visitUS returns visit durations in µs, filtered by keep.
func (p *probeSet) visitUS(keep func(visitSample) bool) []float64 {
	var out []float64
	for _, l := range p.lanes {
		for _, v := range l.visits {
			if keep(v) {
				out = append(out, float64(v.end-v.start)/1e3)
			}
		}
	}
	return out
}

// laneUS returns one per-lane series of every lane, in µs.
func (p *probeSet) laneUS(series func(*lane) []int64) []float64 {
	var out []float64
	for _, l := range p.lanes {
		for _, ns := range series(l) {
			out = append(out, float64(ns)/1e3)
		}
	}
	return out
}

// unpaired counts records whose visit start was not seen.
func (p *probeSet) unpaired() int {
	n := 0
	for _, l := range p.lanes {
		n += l.unpaired
	}
	return n
}

// busyShare is the share of worker time spent in visits and folds.
// Each probe set's capacity is its lanes times the duration of the
// crawl it probed; the rest is hand-offs to the emit path, waits for a
// job or a day barrier, and the start and end of the crawl.
func busyShare(sets []*probeSet, durs []int64) float64 {
	var busy, capacity int64
	for i, p := range sets {
		capacity += int64(len(p.lanes)) * durs[i]
		for _, l := range p.lanes {
			for _, v := range l.visits {
				busy += v.end - v.start
			}
			for _, f := range l.folds {
				busy += f
			}
		}
	}
	if capacity <= 0 {
		return 0
	}
	return float64(busy) / float64(capacity)
}

// timedSink wraps the JSONL sink and times each Consume: the dataset
// write cost per record.
type timedSink struct {
	tr    *tracer
	inner headerbid.Sink
	n     int
	ns    int64
}

func (s *timedSink) Consume(v headerbid.Visit) error {
	t0 := s.tr.now()
	err := s.inner.Consume(v)
	s.ns += s.tr.now() - t0
	s.n++
	return err
}

func (s *timedSink) Close() error { return s.inner.Close() }

// perRecordUS is the write cost per record in µs.
func (s *timedSink) perRecordUS() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.ns) / 1e3 / float64(s.n)
}
