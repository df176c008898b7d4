package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the pipeline sees, printed with
// --trace 0. Every workload reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"visits_per_s", "1/s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the layer metrics printed with --trace 1: those every
// workload measures. Workload-specific layers (dataset decode and write,
// snapshot codec, report render, scenario axes, emit wait, fold cost,
// revisit warm-up) are printed in the human-readable part only.
var perLayer = []metricDef{
	{"sitegen.generate_s", "s"},
	{"crawler.visit_nonhb_us.p50", "us"},
	{"crawler.visit_nonhb_us.p99", "us"},
	{"crawler.visit_hb_us.p50", "us"},
	{"crawler.visit_hb_us.p99", "us"},
	{"crawler.visit_hb_day0_us.p50", "us"},
	{"crawler.worker_busy_share", "share"},
	{"crawler.handoff_us.p50", "us"},
	{"crawler.handoff_us.p99", "us"},
	{"crawler.pool_hit_ratio", "ratio"},
	{"crawler.quarantined", "count"},
	{"simnet.requests_per_visit", "req/visit"},
	{"simnet.wire_bytes_per_visit", "B/visit"},
	{"hb.auctions", "count"},
	{"hb.bids", "count"},
	{"hb.partners", "count"},
	{"prebid.retries", "count"},
	{"prebid.partner_errors", "count"},
	{"prebid.abandoned", "count"},
	{"runtime.allocs_per_visit", "allocs/visit"},
	{"runtime.alloc_bytes_per_visit", "B/visit"},
	{"runtime.gc_cpu_share", "share"},
	{"runtime.heap_peak_mb", "MB"},
	{"runtime.sched_wait_us.p99", "us"},
	{"bench.trace_overhead_share", "share"},
}

// childTimeout bounds a whole run, reps included, below the 180 s a run
// may take.
const childTimeout = 170 * time.Second

// minReps is the fewest reps an untraced run takes while its budget
// lasts: with three, the median outvotes one rep slowed by a burst of
// load on a shared machine. A rep that alone uses up the budget (a
// 34-day crawl) is measured once.
const minReps = 3

// drive runs reps of one workload, each in a fresh process, until the
// next rep would overrun the budget (but at least minReps, or the whole
// budget), then reports. A rep that returns no result (a crash, a kill,
// the run's timeout, an interrupt) ends the run as a failed check.
func drive(workload string, seed int64, secs int, trace bool, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hbbench:", err)
		return 1
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "hbbench:", err)
		return 1
	}
	// An interrupted run takes its reps' process groups down with it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()

	budget := time.Duration(secs) * time.Second
	//hbvet:allow detwall rep pacing against the measurement budget
	start := time.Now()
	var reps []*repResult
	var lost []string
	var longest time.Duration
	for i := 0; ; i++ {
		traced := trace && i%2 == 1
		//hbvet:allow detwall rep pacing against the measurement budget
		t0 := time.Now()
		cmd := exec.CommandContext(ctx, exe, childArgs(workload, seed, i, traced, out)...)
		// The rep's process group goes down with it: reduce's rep starts
		// a process of its own.
		cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
		cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
		res, err := runChild(cmd)
		if err != nil {
			lost = append(lost, fmt.Sprintf("rep %d: %v", i, err))
			break
		}
		reps = append(reps, res)
		longest = max(longest, time.Since(t0)) //hbvet:allow detwall rep pacing against the measurement budget
		elapsed := time.Since(start)           //hbvet:allow detwall rep pacing against the measurement budget
		// A traced run needs at least one untraced and one traced rep.
		enough := trace && i >= 1 || !trace && (len(reps) >= minReps || elapsed >= budget)
		if enough && elapsed+longest > budget {
			break
		}
	}
	return report(os.Stdout, workload, seed, trace, reps, lost)
}

func childArgs(workload string, seed int64, n int, traced bool, out string) []string {
	tr := "0"
	if traced {
		tr = "1"
	}
	return []string{"-child", "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-rep", strconv.Itoa(n), "-trace", tr, "-out", out}
}

// runChild runs one rep in a fresh process: process-global caches
// (page config, HTML parse) start empty, as in a real run of the tools.
func runChild(cmd *exec.Cmd) (*repResult, error) {
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var res repResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("decoding rep result: %w", err)
	}
	return &res, nil
}

// runMeta is the run metadata printed with the fingerprint.
type runMeta struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Sizes      sizes  `json:"sizes"`
}

func collectMeta(seed int64) runMeta {
	return runMeta{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    runtime.NumCPU(),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     commit(),
		Seed:       seed,
		Sizes:      fullSizes,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checkout's git revision, or "unknown" outside a git
// work tree (git is not allowed to look above the checkout).
func commit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, "git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	b, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// report prints the human-readable summary and, last, the JSON result
// line; it returns the exit code. lost are the reps that returned no
// result, each a failed check.
func report(w io.Writer, workload string, seed int64, trace bool, reps []*repResult, lost []string) int {
	var untraced, traced []*repResult
	attempted, failed := len(lost), len(lost)
	for _, r := range reps {
		if r.Traced {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
		attempted += r.Attempted + len(r.Checks)
		failed += r.Failed + len(r.Checks) - okChecks(r)
	}

	fmt.Fprintf(w, "hbbench %s seed=%d reps=%d (untraced %d, traced %d)\n", workload, seed, len(reps), len(untraced), len(traced))
	for _, r := range reps {
		fmt.Fprintf(w, "  rep %d traced=%v: setup %.3f s, run %.3f s, cpu %.3f s, %.0f /s, rss %.1f MB, %d/%d checks ok\n",
			r.Rep, r.Traced, r.SetupS, r.RunS, r.CPUS, r.PerS, r.RSSMB, okChecks(r), len(r.Checks))
		for _, c := range r.Checks {
			if !c.OK {
				fmt.Fprintf(w, "    FAILED %s: %s\n", c.Name, c.Detail)
			}
		}
	}

	for _, l := range lost {
		fmt.Fprintf(w, "  FAILED %s returned no result\n", l)
	}

	// The fingerprint must repeat exactly across every rep of the seed,
	// traced and untraced alike.
	if len(reps) > 0 {
		fp, _ := json.Marshal(reps[0].Fingerprint)
		same := true
		for _, r := range reps[1:] {
			b, _ := json.Marshal(r.Fingerprint)
			if !bytes.Equal(b, fp) {
				same = false
				fmt.Fprintf(w, "  FAILED fingerprint of rep %d differs from rep 0: %s\n", r.Rep, b)
			}
		}
		attempted++
		if !same {
			failed++
		}
		meta, _ := json.Marshal(collectMeta(seed))
		fmt.Fprintf(w, "fingerprint (identical across %d reps: %v)\n  meta %s\n  %s\n", len(reps), same, meta, fp)
	}

	e2e := map[string]float64{}
	if len(untraced) > 0 {
		pick := func(f func(*repResult) float64) []float64 {
			xs := make([]float64, len(untraced))
			for i, r := range untraced {
				xs[i] = f(r)
			}
			return xs
		}
		series := map[string][]float64{
			"setup_s":      pick(func(r *repResult) float64 { return r.SetupS }),
			"run_s":        pick(func(r *repResult) float64 { return r.RunS }),
			"visits_per_s": pick(func(r *repResult) float64 { return r.PerS }),
			"cpu_s":        pick(func(r *repResult) float64 { return r.CPUS }),
			"peak_rss_mb":  pick(func(r *repResult) float64 { return r.RSSMB }),
		}
		units := map[string]string{}
		for _, m := range endToEnd {
			units[m.name] = m.unit
		}
		if workload == "reduce" {
			series["merge_s"] = pick(func(r *repResult) float64 { return r.MergeS })
			series["records_per_s"] = series["visits_per_s"]
			units["merge_s"], units["records_per_s"] = "s", "1/s"
		}
		fmt.Fprintf(w, "end-to-end (untraced reps):\n")
		names := make([]string, 0, len(series))
		for k := range series {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			t := summarize(series[k])
			e2e[k] = t.Median
			fmt.Fprintf(w, "  %-14s %s\n", k, fmtTiming(t, units[k]))
		}
	}
	share := 0.0
	if attempted > 0 {
		share = float64(failed) / float64(attempted)
	}
	fmt.Fprintf(w, "  %-14s %.6f (%d failed / %d attempted)\n", "failed_share", share, failed, attempted)

	metrics := map[string]map[string]any{}
	if !trace {
		for _, m := range endToEnd {
			metrics[m.name] = map[string]any{"value": e2e[m.name], "unit": m.unit}
		}
	} else {
		layers := layerMedians(traced, untraced)
		if rt, ru := median(runS(traced)), median(runS(untraced)); ru > 0 {
			layers["bench.trace_overhead_share"] = rt/ru - 1
			fmt.Fprintf(w, "tracing overhead: run_s traced %.3f s vs untraced %.3f s (%+.1f%%)\n", rt, ru, 100*(rt/ru-1))
		}
		fmt.Fprintf(w, "per-layer (traced reps; runtime.* from untraced reps):\n")
		names := make([]string, 0, len(layers))
		for k := range layers {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(w, "  %-40s %.6g\n", k, layers[k])
		}
		for _, m := range perLayer {
			v, ok := layers[m.name]
			attempted++
			if !ok {
				fmt.Fprintf(w, "  FAILED per-layer metric %s was not measured\n", m.name)
				failed++
			}
			metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
		}
	}

	line, err := json.Marshal(map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hbbench:", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", line)
	if failed > 0 {
		return 1
	}
	return 0
}

func okChecks(r *repResult) int {
	n := 0
	for _, c := range r.Checks {
		if c.OK {
			n++
		}
	}
	return n
}

func runS(reps []*repResult) []float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = r.RunS
	}
	return xs
}

// layerMedians is the median of each layer metric over the traced reps;
// runtime.* metrics come from the untraced reps, which the probes do not
// perturb.
func layerMedians(traced, untraced []*repResult) map[string]float64 {
	pool := func(reps []*repResult, keep func(string) bool) map[string][]float64 {
		m := map[string][]float64{}
		for _, r := range reps {
			for k, v := range r.Layers {
				if keep(k) {
					m[k] = append(m[k], v)
				}
			}
		}
		return m
	}
	isRuntime := func(k string) bool { return strings.HasPrefix(k, "runtime.") }
	out := map[string]float64{}
	for k, xs := range pool(traced, func(k string) bool { return !isRuntime(k) }) {
		out[k] = median(xs)
	}
	for k, xs := range pool(untraced, isRuntime) {
		out[k] = median(xs)
	}
	return out
}

func fmtTiming(t timing, unit string) string {
	s := fmt.Sprintf("median %.6g %s", t.Median, unit)
	if t.TailP > 0 {
		s += fmt.Sprintf(", p%g %.6g %s", t.TailP, t.Tail, unit)
	} else {
		s += ", no tail percentile (needs n>=20)"
	}
	return s + fmt.Sprintf(" (n=%d)", t.N)
}
