package main

import (
	"math"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// cpuSeconds is the process's user+sys CPU time so far, from getrusage.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's peak resident set so far (ru_maxrss is in
// KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

const (
	rmAllocObjs = "/gc/heap/allocs:objects"
	rmAllocByte = "/gc/heap/allocs:bytes"
	rmGCCPU     = "/cpu/classes/gc/total:cpu-seconds"
	rmSchedLat  = "/sched/latencies:seconds"
	rmHeapObjs  = "/memory/classes/heap/objects:bytes"
)

// rtSnap is one read of the runtime counters the runtime.* layer
// metrics are deltas of.
type rtSnap struct {
	cpu     float64
	samples []metrics.Sample
}

func readRuntime() rtSnap {
	s := []metrics.Sample{{Name: rmAllocObjs}, {Name: rmAllocByte}, {Name: rmGCCPU}, {Name: rmSchedLat}}
	metrics.Read(s)
	return rtSnap{cpu: cpuSeconds(), samples: s}
}

// runtimeLayers computes the runtime.* metrics over the interval
// between two snapshots, per unit of work (a visit, or a decoded record
// on the read side).
func runtimeLayers(a, b rtSnap, units int, heapPeak float64) map[string]float64 {
	u := func(i int) float64 { return float64(b.samples[i].Value.Uint64() - a.samples[i].Value.Uint64()) }
	out := map[string]float64{"runtime.heap_peak_mb": heapPeak / (1 << 20)}
	if units > 0 {
		out["runtime.allocs_per_visit"] = u(0) / float64(units)
		out["runtime.alloc_bytes_per_visit"] = u(1) / float64(units)
	}
	gc := b.samples[2].Value.Float64() - a.samples[2].Value.Float64()
	if cpu := b.cpu - a.cpu; cpu > 0 {
		out["runtime.gc_cpu_share"] = gc / cpu
	}
	out["runtime.sched_wait_us.p99"] = histDeltaQuantile(a.samples[3].Value.Float64Histogram(), b.samples[3].Value.Float64Histogram(), 0.99) * 1e6
	return out
}

// histDeltaQuantile is the q-quantile of the samples that landed in a
// cumulative runtime histogram between two reads, interpolated linearly
// inside the bucket it falls in (the lower edge for the open last
// bucket).
func histDeltaQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	want := q * float64(total)
	var seen float64
	for i := range b.Counts {
		n := float64(b.Counts[i] - a.Counts[i])
		if n > 0 && seen+n >= want {
			lo, hi := b.Buckets[i], b.Buckets[i+1]
			switch {
			case math.IsInf(hi, 1):
				return lo
			case math.IsInf(lo, -1):
				return hi
			}
			return lo + (hi-lo)*(want-seen)/n
		}
		seen += n
	}
	return b.Buckets[len(b.Buckets)-1]
}

// heapSampler polls the live-heap size every few milliseconds and keeps
// the peak: the runtime exposes no high-water mark of its own.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := []metrics.Sample{{Name: rmHeapObjs}}
		//hbvet:allow detwall benchmark-side heap sampling period; never reaches program output
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, float64(s[0].Value.Uint64()))
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends the sampler, waits for it and returns the peak in bytes.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	h.done.Wait()
	return h.peak
}
