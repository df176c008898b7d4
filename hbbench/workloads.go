package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"

	"headerbid"
)

// sizes are the workloads' input sizes; the smoke test shrinks them.
type sizes struct {
	Sites      int `json:"sites"`       // crawl-cold, revisit-hb and reduce world
	Days       int `json:"days"`        // revisit-hb and reduce crawl days (day 0 + revisits)
	SweepSites int `json:"sweep_sites"` // sweep-faults shared world
	Shards     int `json:"shards"`      // reduce shard files
}

// fullSizes are the paper's: 35k sites, each HB site revisited daily for
// the 34 days of the longitudinal crawl (DESIGN.md §3), and hbsweep's
// 5000-site world. The 3-way split is the one `make shard-smoke` folds.
var fullSizes = sizes{Sites: 35000, Days: 34, SweepSites: 5000, Shards: 3}

// Calibrated adoption band and partner count of a 35k-site world,
// checked when a rep runs at fullSizes.
const (
	adoptionLo, adoptionHi = 0.13, 0.14
	paperPartners          = 84
)

var workloads = map[string]func(*rep) error{
	"crawl-cold":   func(r *rep) error { return r.crawl(1, true) },
	"revisit-hb":   func(r *rep) error { return r.crawl(r.size.Days, false) },
	"sweep-faults": (*rep).sweep,
	"reduce":       (*rep).reduce,
}

// repResult is what one rep (one fresh process) reports to drive.
type repResult struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Rep      int     `json:"rep"`
	Traced   bool    `json:"traced"`
	SetupS   float64 `json:"setup_s"`
	RunS     float64 `json:"run_s"`
	CPUS     float64 `json:"cpu_s"`
	RSSMB    float64 `json:"peak_rss_mb"`
	// Units is the work of the timed phase: visits, or decoded records
	// on the read side. PerS is units per second of the phase that does
	// them (the whole run for a crawl, the JSONL ingest for reduce).
	Units int     `json:"units"`
	PerS  float64 `json:"per_s"`
	// MergeS is reduce's shard read+fold+render time.
	MergeS float64 `json:"merge_s,omitempty"`

	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Checks      []check            `json:"checks"`
	Fingerprint fingerprint        `json:"fingerprint"`
	Layers      map[string]float64 `json:"layers"`
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// fingerprint is what must repeat exactly for a seed: simulated counts
// and digests of the output bytes.
type fingerprint struct {
	Counts  map[string]int64  `json:"counts"`
	Digests map[string]string `json:"digests"`
}

// rep is one execution of a workload in this process.
type rep struct {
	ctx     context.Context
	exe     string // this program, for reduce's read phase
	out     string
	seed    int64
	size    sizes
	workers int
	dir     string  // this rep's scratch files
	tr      *tracer // nil when untraced
	root    int
	res     *repResult
}

func (r *rep) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.res.Checks = append(r.res.Checks, c)
}

func (r *rep) count(name string, v int64) { r.res.Fingerprint.Counts[name] = v }

func (r *rep) layer(name string, v float64) { r.res.Layers[name] = v }

// stopwatch measures wall and process CPU time of a phase, and the
// runtime counters the runtime.* layers are derived from.
type stopwatch struct {
	t0   time.Time
	rt   rtSnap
	heap *heapSampler
}

func startWatch() stopwatch {
	//hbvet:allow detwall the benchmark's subject is wall time; it never reaches program output
	return stopwatch{t0: time.Now(), rt: readRuntime(), heap: startHeapSampler()}
}

// stop records the phase as the rep's timed phase.
func (w stopwatch) stop(r *rep, units int) {
	end := readRuntime()
	//hbvet:allow detwall the benchmark's subject is wall time; it never reaches program output
	r.res.RunS = time.Since(w.t0).Seconds()
	r.res.CPUS = end.cpu - w.rt.cpu
	r.res.Units = units
	for k, v := range runtimeLayers(w.rt, end, units, w.heap.Stop()) {
		r.layer(k, v)
	}
}

func seconds(f func()) float64 {
	//hbvet:allow detwall the benchmark's subject is wall time; it never reaches program output
	t0 := time.Now()
	f()
	//hbvet:allow detwall the benchmark's subject is wall time; it never reaches program output
	return time.Since(t0).Seconds()
}

// setupReps is how often a crawl rep generates its world. setup_s is the
// median; only the last world is crawled, so the crawl still starts from
// a fresh world.
const setupReps = 3

// generate builds the world exactly as hbcrawl and hbsweep do.
func (r *rep) generate(sites int) *headerbid.World {
	var w *headerbid.World
	times := make([]float64, setupReps)
	for i := range times {
		times[i] = seconds(func() {
			r.tr.do(r.root, "sitegen.generate", func(int) {
				cfg := headerbid.DefaultWorldConfig(r.seed)
				cfg.NumSites = sites
				w = headerbid.GenerateWorld(cfg)
			})
		})
	}
	r.res.SetupS = median(times)
	if r.tr != nil {
		r.layer("sitegen.generate_s", r.tr.meanMS("sitegen.generate")/1e3)
	}
	return w
}

// layerSpan records the summed duration of the named spans, scaled.
func (r *rep) layerSpan(layer, spanName string, scale float64) {
	if r.tr == nil {
		return
	}
	var ns int64
	for _, s := range r.tr.named(spanName) {
		ns += s.dur()
	}
	r.layer(layer, float64(ns)*scale)
}

// crawlRun is one Experiment as hbcrawl runs it: a fresh world, run
// telemetry, the JSONL sink and the figure report (plus the degradation
// metric when a shard file is written).
type crawlRun struct {
	fr     *headerbid.FigureReport
	deg    *headerbid.DegradationMetric
	reg    *headerbid.Telemetry
	jsonl  *headerbid.JSONLSink
	path   string
	res    headerbid.Results
	probes *probeSet
	ts     *timedSink
	span   span
}

// runExperiment crawls w for days with the hbcrawl configuration plus
// extra ordered sinks; in a traced rep it takes visit starts from the
// visit hook, brackets the metrics with the visit probes and times the
// JSONL sink.
func (r *rep) runExperiment(w *headerbid.World, days int, withDeg bool, extra ...headerbid.Sink) (*crawlRun, error) {
	c := &crawlRun{
		fr:   headerbid.NewFigureReport(),
		reg:  headerbid.NewTelemetry(),
		path: filepath.Join(r.dir, "crawl.jsonl"),
	}
	var err error
	if c.jsonl, err = headerbid.NewJSONLFileSink(c.path); err != nil {
		return nil, err
	}
	metrics := []headerbid.Metric{c.fr}
	if withDeg {
		c.deg = headerbid.NewDegradation()
		metrics = append(metrics, c.deg)
	}
	sinks := append([]headerbid.Sink{c.jsonl}, extra...)
	var opts []headerbid.ExperimentOption
	id := r.tr.begin(r.root, "crawl")
	if r.tr != nil {
		starts := newVisitStarts(r.tr)
		cfg := headerbid.DefaultCrawlConfig(r.seed)
		cfg.VisitHook = starts.hook
		opts = append(opts, headerbid.WithCrawlConfig(cfg))
		c.probes = newProbeSet(r.tr, id, starts)
		start, end := c.probes.metrics()
		metrics = append(append([]headerbid.Metric{start}, metrics...), end)
		c.ts = &timedSink{tr: r.tr, inner: c.jsonl}
		sinks[0] = c.ts
		sinks = append(sinks, c.probes.emitSink())
	}
	c.res, err = headerbid.NewExperiment(append(opts,
		headerbid.WithWorld(w),
		headerbid.WithSeed(r.seed),
		headerbid.WithDays(days),
		headerbid.WithWorkers(r.workers),
		headerbid.WithTelemetry(c.reg),
		headerbid.WithSink(sinks...),
		headerbid.WithMetrics(metrics...),
	)...).Run(r.ctx)
	r.tr.finish(id)
	if r.tr != nil {
		c.span = r.tr.spans[id-1]
		c.probes.flush()
	}
	return c, err
}

// telemetryLayers records the layers derived from a crawl's telemetry.
func (r *rep) telemetryLayers(t headerbid.TelemetryTotals) {
	if t.Visits == 0 {
		return
	}
	r.layer("crawler.pool_hit_ratio", float64(t.PoolHits)/float64(t.PoolHits+t.PoolMisses))
	r.layer("simnet.requests_per_visit", float64(t.WireRequests)/float64(t.Visits))
	r.layer("simnet.wire_bytes_per_visit", float64(t.WireBytesOut+t.WireBytesIn)/float64(t.Visits))
}

// workCounts are the exact simulated counts reported as work layers.
type workCounts struct {
	quarantined, auctions, bids, partners, retries, partnerErrors, abandoned int
}

func (r *rep) workLayers(w workCounts) {
	r.layer("crawler.quarantined", float64(w.quarantined))
	r.layer("hb.auctions", float64(w.auctions))
	r.layer("hb.bids", float64(w.bids))
	r.layer("hb.partners", float64(w.partners))
	r.layer("prebid.retries", float64(w.retries))
	r.layer("prebid.partner_errors", float64(w.partnerErrors))
	r.layer("prebid.abandoned", float64(w.abandoned))
}

// crawlLayers records the crawler, dataset and work-count layers of one
// experiment.
func (r *rep) crawlLayers(c *crawlRun) {
	t, s := c.reg.Totals(), c.res.Summary
	r.telemetryLayers(t)
	r.workLayers(workCounts{
		quarantined: int(t.Quarantined), auctions: s.Auctions, bids: s.Bids, partners: s.DemandPartners,
		retries: int(t.Retries), partnerErrors: int(t.PartnerErrors), abandoned: int(t.Abandoned),
	})
	if c.probes == nil {
		return
	}
	r.visitLayers([]*probeSet{c.probes}, []int64{c.span.dur()}, c.res.Stats.Visits)
	emits := make([]float64, len(c.probes.emits))
	for i, ns := range c.probes.emits {
		emits[i] = float64(ns) / 1e3
	}
	sort.Float64s(emits)
	r.layer("crawler.emit_wait_us.p50", percentile(emits, 50))
	r.layer("crawler.emit_wait_us.p99", percentile(emits, 99))
	r.layer("dataset.write_us_per_record", c.ts.perRecordUS())
	r.layer("analysis.fold_us_per_record", mean(c.probes.laneUS(func(l *lane) []int64 { return l.folds })))
}

// visitLayers records the per-visit timing, hand-off and busy-share
// layers over the probe sets' lanes; durs are the probed crawls' wall
// times. Every one of the visits must have been timed from its hook.
func (r *rep) visitLayers(sets []*probeSet, durs []int64, visits int) {
	collect := func(keep func(visitSample) bool) []float64 {
		var out []float64
		for _, p := range sets {
			out = append(out, p.visitUS(keep)...)
		}
		sort.Float64s(out)
		return out
	}
	nonHB := collect(func(v visitSample) bool { return !v.hb })
	hb := collect(func(v visitSample) bool { return v.hb })
	day0 := collect(func(v visitSample) bool { return v.hb && v.day == 0 })
	var handoff []float64
	unpaired := 0
	for _, p := range sets {
		handoff = append(handoff, p.laneUS(func(l *lane) []int64 { return l.handoffs })...)
		unpaired += p.unpaired()
	}
	sort.Float64s(handoff)
	timed := len(nonHB) + len(hb)
	r.check("every visit timed from its hook", unpaired == 0 && timed == visits,
		"%d of %d visits timed, %d records without a hooked start", timed, visits, unpaired)
	r.layer("crawler.worker_busy_share", busyShare(sets, durs))
	r.layer("crawler.handoff_us.p50", percentile(handoff, 50))
	r.layer("crawler.handoff_us.p99", percentile(handoff, 99))
	r.layer("crawler.visit_nonhb_us.n", float64(len(nonHB)))
	r.layer("crawler.visit_hb_us.n", float64(len(hb)))
	r.layer("crawler.visit_nonhb_us.p50", percentile(nonHB, 50))
	r.layer("crawler.visit_nonhb_us.p99", percentile(nonHB, 99))
	r.layer("crawler.visit_hb_us.p50", percentile(hb, 50))
	r.layer("crawler.visit_hb_us.p99", percentile(hb, 99))
	r.layer("crawler.visit_hb_day0_us.p50", percentile(day0, 50))
	if later := collect(func(v visitSample) bool { return v.hb && v.day > 0 }); len(later) > 0 {
		r.layer("crawler.visit_hb_revisit_us.p50", percentile(later, 50))
		r.layer("crawler.hb_cold_warm_ratio", percentile(day0, 50)/percentile(later, 50))
	}
}

// crawl is crawl-cold (one day, shard file written) and revisit-hb
// (day 0 plus daily revisits of the HB sites).
func (r *rep) crawl(days int, shardOut bool) error {
	w := r.generate(r.size.Sites)

	sw := startWatch()
	c, err := r.runExperiment(w, days, shardOut)
	r.check("crawl completed", err == nil, "%v", err)
	if err != nil {
		sw.stop(r, 0)
		return err
	}
	shardPath := filepath.Join(r.dir, "crawl.hbs")
	if shardOut {
		h := headerbid.ShardHeader{Seed: r.seed, ShardCount: 1, Shards: []int{0}}
		r.tr.do(r.root, "snapshot.marshal", func(int) {
			err = headerbid.WriteShardFile(shardPath, h, []headerbid.MetricCodec{c.fr, c.deg})
		})
		r.check("shard file written", err == nil, "%v", err)
	}
	var live bytes.Buffer
	r.tr.do(r.root, "report.render", func(int) { c.fr.Render(&live) })
	sw.stop(r, c.res.Stats.Visits)
	r.res.PerS = float64(c.res.Stats.Visits) / r.res.RunS

	r.crawlLayers(c)
	r.digest("report", live.Bytes())
	r.tr.do(r.root, "check.records", func(int) { r.checkRecords(w, c, days) })
	if shardOut {
		r.layerSpan("snapshot.marshal_ms", "snapshot.marshal", 1e-6)
		// Shard bytes are not digested: for one seed they differ from run
		// to run (sample order inside the figure_report state), while the
		// report folded from them does not.
		r.fileLayer("snapshot.shard_bytes", "", shardPath)
		r.count("shard_bytes", int64(r.res.Layers["snapshot.shard_bytes"]))
		r.checkShardReadback(shardPath, live.Bytes())
	}
	if r.tr != nil {
		r.layer("report.render_ms", r.tr.meanMS("report.render"))
	}
	return nil
}

// checkRecords reads the JSONL back: emitted records must equal the
// scheduled visits in (day, rank) order, later days must hold only
// day-0 HB sites, and at paper size adoption must sit in the calibrated
// band.
func (r *rep) checkRecords(w *headerbid.World, c *crawlRun, days int) {
	perDay := make([]int, days)
	hb0 := make(map[string]bool)
	ordered, onlyHB := true, true
	lastDay, lastRank, n := -1, -1, 0
	h := sha256.New()
	f, err := os.Open(c.path)
	if err == nil {
		err = headerbid.ReadDatasetStream(io.TeeReader(f, h), func(rec *headerbid.SiteRecord) error {
			n++
			d := rec.VisitDay
			if d < lastDay || (d == lastDay && rec.Rank <= lastRank) || d >= days {
				ordered = false
				return nil
			}
			lastDay, lastRank = d, rec.Rank
			perDay[d]++
			switch {
			case d == 0 && rec.HB:
				hb0[rec.Domain] = true
			case d > 0 && !hb0[rec.Domain]:
				onlyHB = false
			}
			return nil
		})
		f.Close()
	}
	r.check("dataset decodes", err == nil, "%v", err)
	r.res.Fingerprint.Digests["jsonl"] = hex.EncodeToString(h.Sum(nil))
	// Day 0 schedules every site, later days the day-0 HB sites.
	scheduled, detail := len(w.Sites), ""
	for d := 0; d < days && detail == ""; d++ {
		if perDay[d] != scheduled {
			detail = fmt.Sprintf("day %d: %d records, %d scheduled", d, perDay[d], scheduled)
		}
		scheduled = len(hb0)
	}
	if detail == "" && (n != c.res.Stats.Visits || n != c.jsonl.Count()) {
		detail = fmt.Sprintf("%d decoded, %d visits, %d written", n, c.res.Stats.Visits, c.jsonl.Count())
	}
	r.check("records equal scheduled visits", detail == "", "%s", detail)
	r.check("records in (day, rank) order", ordered, "order broken after day %d rank %d", lastDay, lastRank)
	if days > 1 {
		r.check("later days hold only day-0 HB sites", onlyHB, "a revisit went to a site without HB on day 0")
	}
	if r.size.Sites == fullSizes.Sites {
		s := c.res.Summary
		a := s.AdoptionRate()
		r.check("adoption in calibrated band", a >= adoptionLo && a <= adoptionHi, "adoption %.4f outside [%.2f, %.2f]", a, adoptionLo, adoptionHi)
		r.check("demand partners", s.DemandPartners == paperPartners, "%d partners, want %d", s.DemandPartners, paperPartners)
	}
	r.fileLayer("dataset.bytes_per_record", "", c.path)
	if n > 0 {
		r.res.Layers["dataset.bytes_per_record"] /= float64(n)
	}

	s, t := c.res.Summary, c.reg.Totals()
	r.count("records", int64(n))
	r.count("visits", int64(t.Visits))
	r.count("loaded", int64(t.Loaded))
	r.count("timed_out", int64(t.TimedOut))
	r.count("hb_sites", int64(s.SitesWithHB))
	r.count("auctions", int64(s.Auctions))
	r.count("bids", int64(s.Bids))
	r.count("partners", int64(s.DemandPartners))
	r.count("quarantined", int64(t.Quarantined))
	r.count("retries", int64(t.Retries))
	r.count("partner_errors", int64(t.PartnerErrors))
	r.count("abandoned", int64(t.Abandoned))
	r.count("pool_hits", int64(t.PoolHits))
	r.count("wire_requests", int64(t.WireRequests))
	r.count("wire_bytes", int64(t.WireBytesOut+t.WireBytesIn))
	r.res.Attempted += n
	r.res.Failed += int(t.Quarantined)
}

// checkShardReadback folds the shard file back, as hbmerge does; the
// rendered report must be byte-identical to the live one.
func (r *rep) checkShardReadback(path string, live []byte) {
	id := r.tr.begin(r.root, "check.shard_readback")
	defer r.tr.finish(id)
	var fold headerbid.ShardFold
	var (
		h   headerbid.ShardHeader
		ms  []headerbid.MetricCodec
		err error
	)
	r.tr.do(id, "snapshot.unmarshal", func(int) { h, ms, err = headerbid.ReadShardFile(path) })
	if err == nil {
		r.tr.do(id, "snapshot.fold", func(int) { err = fold.Add(h, ms) })
	}
	var got bytes.Buffer
	if err == nil {
		if m, ok := fold.Get("figure_report"); ok {
			r.tr.do(id, "report.render", func(int) { m.(*headerbid.FigureReport).Render(&got) })
		}
	}
	r.check("shard readback report identical", err == nil && bytes.Equal(got.Bytes(), live),
		"err=%v, %d vs %d report bytes", err, got.Len(), len(live))
	r.layerSpan("snapshot.unmarshal_ms", "snapshot.unmarshal", 1e-6)
	r.layerSpan("snapshot.fold_ms", "snapshot.fold", 1e-6)
}

// fileLayer digests a file (under digest name, if given) and records its
// size as a layer.
func (r *rep) fileLayer(layer, digest, path string) {
	b, err := os.ReadFile(path)
	if err != nil {
		r.check("read "+filepath.Base(path), false, "%v", err)
		return
	}
	r.layer(layer, float64(len(b)))
	if digest != "" {
		r.digest(digest, b)
	}
}

func (r *rep) digest(name string, b []byte) {
	sum := sha256.Sum256(b)
	r.res.Fingerprint.Digests[name] = hex.EncodeToString(sum[:])
}

// sweepAxes are hbsweep's default axes plus the fault ladder and the
// chaos shapes.
func sweepAxes() []headerbid.Axis {
	return []headerbid.Axis{
		headerbid.TimeoutAxis(), headerbid.PartnerAxis(), headerbid.NetworkAxis(),
		headerbid.FaultAxis(), headerbid.ChaosAxis(),
	}
}

// sweep is sweep-faults: hbsweep over one shared world. Variants run
// concurrently, one crawl worker each, so variants × workers stays at
// the worker budget.
func (r *rep) sweep() error {
	w := r.generate(r.size.SweepSites)
	axes := sweepAxes()
	opts := []headerbid.SweepOption{
		headerbid.WithSweepWorld(w),
		headerbid.WithSweepSeed(r.seed),
		headerbid.WithAxes(axes...),
		headerbid.WithVariantConcurrency(r.workers),
		headerbid.WithSweepWorkers(1),
	}
	var reg *headerbid.Telemetry
	id := r.tr.begin(r.root, "sweep")
	if r.tr != nil {
		reg = headerbid.NewTelemetry()
		starts := newVisitStarts(r.tr)
		cfg := headerbid.DefaultCrawlConfig(r.seed)
		cfg.Telemetry = reg
		cfg.VisitHook = starts.hook
		opts = append(opts, headerbid.WithSweepCrawlConfig(cfg), headerbid.WithVariantMetrics(func() []headerbid.Metric {
			// One probe per variant, opened when the variant starts; the
			// variant's result hands it back in Extra. The variant's own
			// aggregate folds around it, so there is no fold probe.
			start, _ := newProbeSet(r.tr, r.tr.begin(id, "scenario.variant"), starts).metrics()
			return []headerbid.Metric{start}
		}))
	}

	sw := startWatch()
	cmp, err := headerbid.NewSweep(opts...).Run(r.ctx)
	r.tr.finish(id)
	r.check("sweep completed", err == nil, "%v", err)
	if err != nil {
		sw.stop(r, 0)
		return err
	}
	var out bytes.Buffer
	r.tr.do(r.root, "scenario.render", func(int) { cmp.Render(&out) })
	vs := cmp.Variants()
	visits := 0
	for _, v := range vs {
		visits += v.Stats.Visits
	}
	sw.stop(r, visits)
	r.res.PerS = float64(visits) / r.res.RunS
	r.digest("comparison", out.Bytes())

	var quarantined, badVisits int
	var auctions, bids, late, requests, posts, bidErrs, retries, abandoned, winners int64
	for _, v := range vs {
		quarantined += v.Quarantined
		if v.Stats.Visits != len(w.Sites) {
			badVisits++
		}
		auctions += int64(v.Summary.Auctions)
		bids += int64(v.Summary.Bids)
		late += int64(v.LateBids)
		requests += int64(v.Requests)
		posts += int64(v.BidPosts)
		bidErrs += int64(v.BidErrors)
		retries += int64(v.Retries)
		abandoned += int64(v.Abandoned)
		winners += int64(v.Winners)
	}
	want := headerbid.SweepVariantCount(axes...)
	r.check("every variant ran", len(vs) == want, "%d variants, want %d", len(vs), want)
	r.check("every variant visited every site", badVisits == 0, "%d variants with a short crawl", badVisits)
	r.check("zero quarantines", quarantined == 0, "%d quarantined visits", quarantined)
	r.res.Attempted += visits
	r.res.Failed += quarantined

	r.count("variants", int64(len(vs)))
	r.count("visits", int64(visits))
	r.count("hb_sites", int64(cmp.Baseline.Summary.SitesWithHB))
	r.count("auctions", auctions)
	r.count("bids", bids)
	r.count("late_bids", late)
	r.count("winners", winners)
	r.count("requests", requests)
	r.count("bid_posts", posts)
	r.count("bid_errors", bidErrs)
	r.count("retries", retries)
	r.count("abandoned", abandoned)
	r.count("quarantined", int64(quarantined))

	r.workLayers(workCounts{
		quarantined: quarantined, auctions: int(auctions), bids: int(bids), partners: cmp.Baseline.Summary.DemandPartners,
		retries: int(retries), partnerErrors: int(bidErrs), abandoned: int(abandoned),
	})
	if r.tr == nil {
		return nil
	}
	r.layer("scenario.render_ms", r.tr.meanMS("scenario.render"))
	r.telemetryLayers(reg.Totals())

	// Close each variant span at its reported duration and group the
	// visits by axis.
	byAxis := map[string][]float64{}
	var variantS []float64
	durs := make([]int64, len(vs))
	ordered := make([]*probeSet, len(vs))
	for i, v := range vs {
		p := v.Extra[0].(*visitProbe).p
		ordered[i] = p
		s := &r.tr.spans[p.parent-1]
		s.End = s.Start + int64(v.Elapsed)
		s.Name = "scenario.variant:" + v.Axis + "/" + v.Name
		durs[i] = int64(v.Elapsed)
		variantS = append(variantS, v.Elapsed.Seconds())
		p.flush()
		byAxis[v.Axis] = append(byAxis[v.Axis], p.visitUS(func(visitSample) bool { return true })...)
	}
	r.visitLayers(ordered, durs, visits)
	r.layer("scenario.variant_s.p50", median(variantS))
	for axis, us := range byAxis {
		r.layer("scenario.visit_us."+axis+".p50", median(us))
	}
	return nil
}

// reduce is the read side. Setup crawls a world once, writing its JSONL
// and the shard files an n-way distributed crawl of it would write. The
// timed phase then runs in a fresh process over those files, as hbreport
// and hbmerge do, so neither the setup's heap nor its memory peak is
// measured.
func (r *rep) reduce() error {
	c, err := r.reduceInputs(r.size.Shards)
	r.check("inputs generated", err == nil, "%v", err)
	if err != nil {
		return err
	}
	r.crawlLayers(c)
	r.layerSpan("snapshot.marshal_ms", "snapshot.marshal", 1e-6)
	s := c.res.Summary
	r.count("hb_sites", int64(s.SitesWithHB))
	r.count("auctions", int64(s.Auctions))
	r.count("bids", int64(s.Bids))
	r.count("partners", int64(s.DemandPartners))
	r.fileLayer("dataset.bytes_per_record", "jsonl", c.path)

	// Each read is a fresh process over the same files, as a user rerunning
	// hbreport and hbmerge; several per rep measure more of the short read
	// phase for each setup crawl.
	var reads []*repResult
	for i := 0; i < readsPerRep; i++ {
		cmd := exec.CommandContext(r.ctx, r.exe, append(childArgs("reduce", r.seed, r.res.Rep, r.tr != nil, r.out), "-read", r.dir)...)
		read, err := runChild(cmd)
		r.check("read phase ran", err == nil, "%v", err)
		if err != nil {
			return err
		}
		reads = append(reads, read)
	}
	med := func(f func(*repResult) float64) float64 {
		xs := make([]float64, len(reads))
		for i, rd := range reads {
			xs[i] = f(rd)
		}
		return median(xs)
	}
	r.res.RunS = med(func(rd *repResult) float64 { return rd.RunS })
	r.res.CPUS = med(func(rd *repResult) float64 { return rd.CPUS })
	r.res.RSSMB = med(func(rd *repResult) float64 { return rd.RSSMB })
	r.res.PerS = med(func(rd *repResult) float64 { return rd.PerS })
	r.res.MergeS = med(func(rd *repResult) float64 { return rd.MergeS })
	fp0, _ := json.Marshal(reads[0].Fingerprint)
	layers := map[string][]float64{}
	for _, rd := range reads {
		r.res.Attempted += rd.Attempted
		r.res.Failed += rd.Failed
		r.res.Checks = append(r.res.Checks, rd.Checks...)
		fp, _ := json.Marshal(rd.Fingerprint)
		r.check("read phases agree", bytes.Equal(fp, fp0), "%s vs %s", fp, fp0)
		for k, v := range rd.Layers {
			layers[k] = append(layers[k], v)
		}
	}
	for k, xs := range layers {
		r.layer(k, median(xs))
	}
	read := reads[0]
	r.res.Units = read.Units
	for k, v := range read.Fingerprint.Counts {
		r.count(k, v)
	}
	for k, v := range read.Fingerprint.Digests {
		r.res.Fingerprint.Digests[k] = v
	}
	r.check("records equal crawled visits", read.Units == c.res.Stats.Visits, "%d decoded, %d crawled", read.Units, c.res.Stats.Visits)
	if read.Units > 0 {
		r.res.Layers["dataset.bytes_per_record"] /= float64(read.Units)
	}
	return nil
}

// reduceInputs is reduce's setup: one longitudinal crawl (day 0 and the
// daily HB revisits) of a fresh world writes the JSONL and the live
// report, and routes every record to the shard its site belongs to
// (ShardOf, the distributed crawl's partition), so the n shard files hold
// the state the n shard crawls would write.
func (r *rep) reduceInputs(n int) (c *crawlRun, err error) {
	r.res.SetupS = seconds(func() {
		w := r.generate(r.size.Sites)
		frs := make([]*headerbid.FigureReport, n)
		degs := make([]*headerbid.DegradationMetric, n)
		for i := range frs {
			frs[i], degs[i] = headerbid.NewFigureReport(), headerbid.NewDegradation()
		}
		route := headerbid.SinkFunc(func(v headerbid.Visit) error {
			i := headerbid.ShardOf(r.seed, v.Record.Rank, n)
			frs[i].Add(v.Record)
			degs[i].Add(v.Record)
			return nil
		})
		if c, err = r.runExperiment(w, r.size.Days, false, route); err != nil {
			return
		}
		var live bytes.Buffer
		c.fr.Render(&live)
		if err = os.WriteFile(filepath.Join(r.dir, liveReport), live.Bytes(), 0o644); err != nil {
			return
		}
		r.tr.do(r.root, "snapshot.marshal", func(int) {
			for i := 0; i < n && err == nil; i++ {
				p := filepath.Join(r.dir, fmt.Sprintf("shard%d.hbs", i))
				h := headerbid.ShardHeader{Seed: r.seed, ShardCount: n, Shards: []int{i}}
				err = headerbid.WriteShardFile(p, h, []headerbid.MetricCodec{frs[i], degs[i]})
			}
		})
	})
	return c, err
}

const (
	liveReport  = "live-report.txt"
	readsPerRep = 3
)

// readInputs is reduce's timed phase over the inputs in dir: the JSONL
// streamed into the full report (the hbreport path), then the shard
// files read, folded and rendered (the hbmerge path). Both reports must
// equal the live one byte for byte.
func (r *rep) readInputs(dir string) error {
	live, err := os.ReadFile(filepath.Join(dir, liveReport))
	r.check("live report readable", err == nil, "%v", err)
	if err != nil {
		return err
	}
	shardPaths, _ := filepath.Glob(filepath.Join(dir, "shard*.hbs")) // the pattern is well-formed

	sw := startWatch()
	var ingested bytes.Buffer
	records := 0
	ingestS := seconds(func() {
		fr := headerbid.NewFigureReport()
		var f *os.File
		if f, err = os.Open(filepath.Join(dir, "crawl.jsonl")); err != nil {
			return
		}
		defer f.Close()
		r.tr.do(r.root, "dataset.read_stream", func(id int) {
			err = headerbid.ReadDatasetStream(f, func(rec *headerbid.SiteRecord) error {
				records++
				t0 := r.tr.now()
				fr.Add(rec)
				r.tr.add(id, "analysis.fold", t0, r.tr.now())
				return nil
			})
		})
		r.tr.do(r.root, "report.render", func(int) { fr.Render(&ingested) })
	})
	r.check("dataset decodes", err == nil, "%v", err)

	var merged bytes.Buffer
	var fold headerbid.ShardFold
	mergeS := seconds(func() {
		for _, p := range shardPaths {
			var (
				h  headerbid.ShardHeader
				ms []headerbid.MetricCodec
			)
			r.tr.do(r.root, "snapshot.unmarshal", func(int) { h, ms, err = headerbid.ReadShardFile(p) })
			if err != nil {
				return
			}
			r.tr.do(r.root, "snapshot.fold", func(int) { err = fold.Add(h, ms) })
			if err != nil {
				return
			}
		}
		if m, ok := fold.Get("figure_report"); ok {
			r.tr.do(r.root, "report.render", func(int) { m.(*headerbid.FigureReport).Render(&merged) })
		}
	})
	sw.stop(r, records)
	r.res.PerS = float64(records) / ingestS
	r.res.MergeS = mergeS

	r.check("shard files fold completely", err == nil && fold.Complete(), "err=%v, complete=%v", err, fold.Complete())
	r.check("hbreport path identical to live report", bytes.Equal(ingested.Bytes(), live), "%d vs %d bytes", ingested.Len(), len(live))
	r.check("hbmerge path identical to live report", bytes.Equal(merged.Bytes(), live), "%d vs %d bytes", merged.Len(), len(live))
	r.res.Attempted += records
	r.digest("report", merged.Bytes())
	var shardBytes int64
	for _, p := range shardPaths {
		if st, err := os.Stat(p); err == nil {
			shardBytes += st.Size()
		}
	}
	r.layer("snapshot.shard_bytes", float64(shardBytes))
	r.count("records", int64(records))
	r.count("shards", int64(fold.Header().ShardCount))
	r.count("shard_bytes", shardBytes)

	if r.tr == nil {
		return nil
	}
	var foldNS int64
	for _, s := range r.tr.named("analysis.fold") {
		foldNS += s.dur()
	}
	if rs := r.tr.named("dataset.read_stream"); len(rs) == 1 && records > 0 {
		r.layer("dataset.decode_us_per_record", float64(selfNS(r.tr.spans, rs[0].ID))/1e3/float64(records))
		r.layer("analysis.fold_us_per_record", float64(foldNS)/1e3/float64(records))
	}
	r.layerSpan("snapshot.unmarshal_ms", "snapshot.unmarshal", 1e-6)
	r.layerSpan("snapshot.fold_ms", "snapshot.fold", 1e-6)
	r.layer("report.render_ms", r.tr.meanMS("report.render"))
	return nil
}
