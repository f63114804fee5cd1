// Command perfbench is the repository's benchmark. It runs closed-loop
// workloads with two workers against the Turn queue, the service's
// Topic layer, and the full HTTP service on loopback, checks that every
// message arrives exactly once and byte for byte, and prints the
// end-to-end metrics (untraced) or, with -trace 1, the per-layer
// metrics and the layer ledger of a separate traced phase.
//
// Usage, from the root of a checkout (run.sh builds and runs it):
//
//	perfbench -workload turn-pairs|topic-batch|svc-batch|svc-single|all
//	          -seed n -seconds s -trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero if
// any correctness check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

const (
	gomaxprocs = 2 // the reference host's CPU count; fixed so the shape holds on bigger hosts
	warmup     = time.Second
	setupReps  = 21 // timed set-ups per run; setup_s is their median
	setupWarm  = 5  // untimed set-ups before them, so the first timed one is not the process's first
)

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Uint64("seed", 1, "input seed: payload bytes and retry jitter derive from it")
		seconds = flag.Float64("seconds", 10, "measured seconds per phase")
		trace   = flag.Int("trace", 0, "1 adds a traced phase and reports per-layer metrics")
	)
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	var selected []workload
	for _, wl := range workloads {
		if *name == "all" || *name == wl.name {
			selected = append(selected, wl)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(gomaxprocs)
	host := readHost(".")
	d := time.Duration(*seconds * float64(time.Second))

	out := map[string]any{}
	metrics := map[string]any{}
	var attempted, failed int64
	correct := true
	for _, wl := range selected {
		r := runWorkload(wl, *seed, d, *trace == 1)
		r.report(os.Stdout, host)
		if r.b != nil {
			path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", wl.name, *seed))
			if err := r.b.trace.write(path); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			} else {
				fmt.Printf("spans written to %s\n", path)
			}
		}
		fmt.Println()
		correct = correct && r.correct()
		attempted += r.total.attempted
		failed += r.total.failed()
		defs, vals := endToEnd, r.e2e
		if *trace == 1 {
			defs, vals = perLayer, r.layer
		}
		for _, d := range defs {
			key := d.name
			if len(selected) > 1 {
				key = wl.name + "." + d.name
			}
			metrics[key] = map[string]any{"value": vals[d.name], "unit": d.unit}
		}
	}
	out["correct"] = correct
	out["attempted"] = attempted
	out["failed"] = failed
	out["metrics"] = metrics
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

// runWorkload sets the workload up setupWarm+setupReps times (all but
// the last instance are closed again, through the same final gates),
// warms it up, measures it, and closes it.
func runWorkload(wl workload, seed uint64, d time.Duration, traced bool) *result {
	r := &result{workload: wl.name, seed: seed, seconds: d.Seconds(), traced: traced}
	fail := func(err error) *result {
		r.errs = append(r.errs, err)
		r.total.errored++
		r.a = &phaseResult{}
		r.e2e = e2eMetrics(r.a, median(r.setups))
		return r
	}
	tr := newTracer()
	var inst instance
	for i := -setupWarm; i < setupReps; i++ {
		runtime.GC()
		start := time.Now()
		next, err := wl.setup(seed, tr)
		if i >= 0 {
			r.setups = append(r.setups, time.Since(start).Seconds())
		}
		if err != nil {
			return fail(fmt.Errorf("set-up: %w", err))
		}
		if i < setupReps-1 {
			c, err := next.close()
			r.total.add(c)
			if err != nil {
				return fail(fmt.Errorf("set-up %d close: %w", i, err))
			}
			continue
		}
		inst = next
	}
	tally := func(p *phaseResult) *phaseResult {
		r.total.add(p.c)
		if p.err != nil {
			r.errs = append(r.errs, p.err)
		}
		return p
	}
	tally(measure(inst, warmup, nil))
	if traced {
		// Half untraced, half traced: a traced run takes as long as an
		// untraced one, and their difference is the tracing overhead.
		r.a = tally(measure(inst, d/2, nil))
		r.b = tally(measure(inst, d/2, tr))
	} else {
		r.a = tally(measure(inst, d, nil))
	}
	final, err := inst.close()
	r.total.add(final)
	if err != nil {
		r.errs = append(r.errs, err)
	}
	r.e2e = e2eMetrics(r.a, median(r.setups))
	if traced {
		r.layer = layerMetrics(wl.name, r.a, r.b, r.total)
		r.ledger = ledgerOf(wl.name, r.b)
	}
	return r
}
