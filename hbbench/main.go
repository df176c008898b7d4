// Command hbbench is the repository benchmark: four closed batch
// workloads run through the headerbid facade, each rep in a fresh
// process, with end-to-end metrics from untraced reps, per-layer metrics
// from traced reps, per-workload correctness checks and a fingerprint
// that must repeat exactly for a seed.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash hbbench/run.sh --workload crawl-cold --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when
// any check fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	var (
		workload = flag.String("workload", "", "crawl-cold, revisit-hb, sweep-faults or reduce")
		seed     = flag.Int64("seed", 1, "workload seed; the program receives only the world and flags made from it")
		secs     = flag.Int("seconds", 30, "measurement budget; reps run until the next would overrun it")
		trace    = flag.Int("trace", 0, "1: per-layer metrics from traced reps (alternating with untraced ones)")
		out      = flag.String("out", ".bench_build/out", "directory for scratch files and span files")
		child    = flag.Bool("child", false, "internal: run one rep in this process and print its result")
		repN     = flag.Int("rep", 0, "internal: rep number")
		read     = flag.String("read", "", "internal: run reduce's timed phase over the inputs in this directory")
	)
	flag.Parse()
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "hbbench: unknown workload %q (crawl-cold, revisit-hb, sweep-faults, reduce)\n", *workload)
		os.Exit(2)
	}
	if *child {
		os.Exit(childMain(*workload, *seed, *repN, *trace == 1, *out, *read))
	}
	os.Exit(drive(*workload, *seed, *secs, *trace == 1, *out))
}

// childMain runs one rep and prints its result as JSON on stdout.
func childMain(workload string, seed int64, n int, traced bool, out, read string) int {
	res, err := runRep(context.Background(), workload, seed, n, traced, out, fullSizes, read)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hbbench: %s rep %d: %v\n", workload, n, err)
	}
	if res == nil {
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		return 1
	}
	return 0
}

// runRep executes one rep of a workload in this process (with read set,
// only reduce's timed phase over the inputs in that directory). Its
// scratch files live under out and are removed when it ends; a traced rep
// keeps its spans in out/spans-<workload>-<seed>[-read].jsonl.
func runRep(ctx context.Context, workload string, seed int64, n int, traced bool, out string, size sizes, read string) (*repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(out, fmt.Sprintf("%s-%d-%d-%d", workload, seed, n, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	r := &rep{
		ctx:     ctx,
		exe:     exe,
		out:     out,
		seed:    seed,
		size:    size,
		workers: runtime.NumCPU(),
		dir:     dir,
		res: &repResult{
			Workload: workload, Seed: seed, Rep: n, Traced: traced,
			Fingerprint: fingerprint{Counts: map[string]int64{}, Digests: map[string]string{}},
			Layers:      map[string]float64{},
		},
	}
	run, suffix := workloads[workload], ""
	if read != "" {
		run, suffix = func(r *rep) error { return r.readInputs(read) }, "-read"
	}
	if traced {
		r.tr = newTracer(fmt.Sprintf("%s/seed=%d/rep=%d%s", workload, seed, n, suffix))
		r.root = r.tr.begin(0, workload+suffix)
	}
	err = run(r)
	r.tr.finish(r.root)
	if r.res.RSSMB == 0 { // reduce reports its read phase's process
		r.res.RSSMB = peakRSSMB()
	}
	if traced {
		if werr := r.tr.write(filepath.Join(out, fmt.Sprintf("spans-%s-%d%s.jsonl", workload, seed, suffix))); werr != nil && err == nil {
			err = werr
		}
	}
	return r.res, err
}
