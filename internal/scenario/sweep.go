package scenario

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"headerbid/internal/analysis"
	"headerbid/internal/crawler"
	"headerbid/internal/overlay"
	"headerbid/internal/sitegen"
)

// EmitFunc receives every visit of every variant as it streams out of
// the variant's crawl, tagged with its axis and variant names. Within
// one variant, calls arrive in deterministic crawl order; across
// variants running concurrently, calls interleave — implementations
// that share state across variants must synchronize (the facade's
// sweep sinks do). Returning a non-nil error aborts the whole sweep.
type EmitFunc func(axis, variant string, v crawler.Visit) error

// Sweep runs N parameterized variants of a crawl over one shared,
// immutably generated world. The world is built (and its caches —
// per-site page HTML, partner exchanges, the host dispatch table —
// warmed) once; every variant reuses it, applying its overlay at visit
// time only, so two variants can crawl the same world concurrently
// without observing each other.
type Sweep struct {
	// World is the shared world every variant crawls. Required.
	World *sitegen.World
	// Opts is the base crawl policy; each variant run copies it and sets
	// only its own Overlay (a non-nil Opts.Overlay is rejected — base
	// interventions belong in an axis, where the comparison can see
	// them).
	Opts crawler.Options
	// Axes are the intervention dimensions; a zero-overlay baseline is
	// always run in addition.
	Axes []Axis
	// Concurrency bounds how many variants run at once (0 = 2). Each
	// variant internally uses Opts.Workers crawl workers, so total
	// parallelism is the product.
	Concurrency int
	// Metrics, when non-nil, builds extra per-variant metrics; each
	// variant gets a fresh set, folded on the crawl workers and merged
	// at variant end into VariantResult.Extra.
	Metrics func() []analysis.Metric
	// Emit, when non-nil, observes every variant's visit stream.
	Emit EmitFunc
}

// runSpec is one scheduled variant.
type runSpec struct {
	axis, name string
	ov         overlay.Overlay
}

// Run executes the baseline and every axis variant over the shared
// world and folds each into a Comparison. Variants run concurrently
// (bounded by Concurrency); the comparison is nonetheless deterministic
// in (world, seed, axes) because per-variant accumulation obeys the
// metric merge laws and results are assembled in axis order. Run stops
// at the first emit error or context cancellation.
func (s *Sweep) Run(ctx context.Context) (*Comparison, error) {
	if s.World == nil {
		return nil, fmt.Errorf("scenario: Sweep.World is required")
	}
	if s.Opts.Overlay != nil {
		return nil, fmt.Errorf("scenario: Sweep.Opts.Overlay must be nil; express base interventions as an axis")
	}

	specs := []runSpec{{axis: BaselineName, name: BaselineName}}
	for _, ax := range s.Axes {
		for _, v := range ax.Variants {
			specs = append(specs, runSpec{axis: ax.Name, name: v.Name, ov: v.Overlay})
		}
	}

	conc := s.Concurrency
	if conc <= 0 {
		conc = 2
	}
	if conc > len(specs) {
		conc = len(specs)
	}

	// First error (emit failure or cancellation) wins; the shared cancel
	// stops the remaining variants promptly.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make([]VariantResult, len(specs))
	errs := make([]error, len(specs))
	sem := make(chan struct{}, conc)
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if ctx.Err() != nil {
				errs[i] = ctx.Err()
				return
			}
			results[i], errs[i] = s.runVariant(ctx, specs[i])
			if errs[i] != nil {
				cancel()
			}
		}(i)
	}
	wg.Wait()

	// Surface the error that *caused* the cancellation: once one variant
	// fails, siblings record context.Canceled, and returning whichever
	// sits first in spec order would mask the real failure (hbsweep
	// would report a sink error as a user interrupt).
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
		if !errors.Is(err, context.Canceled) {
			firstErr = err
			break
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}

	cmp := &Comparison{
		Sites:    len(s.World.Sites),
		Days:     s.Opts.Days,
		Seed:     s.Opts.Seed,
		Baseline: results[0],
	}
	if cmp.Days <= 0 {
		cmp.Days = 1
	}
	i := 1
	for _, ax := range s.Axes {
		axc := AxisComparison{Axis: ax.Name}
		for range ax.Variants {
			axc.Variants = append(axc.Variants, results[i])
			i++
		}
		cmp.Axes = append(cmp.Axes, axc)
	}
	return cmp, nil
}

// runVariant crawls the shared world once under one overlay, folding
// records into a variant aggregate on the crawl workers.
func (s *Sweep) runVariant(ctx context.Context, spec runSpec) (VariantResult, error) {
	//hbvet:allow detwall VariantResult.Elapsed is wall-clock operator metadata; crawl results come from the virtual clock
	start := time.Now()
	opts := s.Opts
	if !spec.ov.IsZero() {
		ov := spec.ov
		opts.Overlay = &ov
	}

	var extra []analysis.Metric
	if s.Metrics != nil {
		extra = s.Metrics()
	}
	agg := newVariantAgg(extra)

	var emit crawler.EmitFunc
	if s.Emit != nil {
		emit = func(v crawler.Visit) error { return s.Emit(spec.axis, spec.name, v) }
	}
	err := crawler.CrawlStreamSharded(ctx, s.World, opts, emit, []analysis.Metric{agg})
	if err != nil {
		return VariantResult{}, fmt.Errorf("scenario: variant %s/%s: %w", spec.axis, spec.name, err)
	}
	//hbvet:allow detwall wall-clock elapsed for the variant, reported to operators only
	return agg.result(spec.axis, spec.name, spec.ov, time.Since(start)), nil
}
