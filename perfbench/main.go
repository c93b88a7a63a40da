// Command perfbench is the repository benchmark. It drives the adascale
// packages through one of four seeded workloads, times them in wall-clock
// from outside, checks their outputs and prints one JSON result line:
//
//	bash perfbench/run.sh --workload stream --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// the benchmark also runs the timed phase with spans around every layer
// call and reports the per-layer metrics instead. README.md lists every
// metric, the workload it is measured on and what should move it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"adascale/internal/parallel"
)

// workers caps every real thread pool the program starts: the parallel
// package's pool and the serving pool. It matches the reference machine's
// nproc, so the workloads measure the same parallelism everywhere.
const workers = 2

// traceDir is where a traced run writes its spans, inside the build
// directory run.sh uses.
const traceDir = ".bench_build/traces"

// bench is one workload. setup makes its inputs (and, where it serves one,
// the trained system); unit runs one repetition of the timed work; check
// verifies outputs outside any timed phase; layers adds the per-layer
// metrics after the traced phase. A nil tracer records nothing.
type bench interface {
	setup(tr *tracer) (buildS float64, err error)
	unit(tr *tracer) (unitResult, error)
	check() error
	layers(tr *tracer, m metricSet) error
}

// unitResult is what one timed repetition measured.
type unitResult struct {
	wallS   float64   // stopwatch time of the program calls, excluding digesting
	frames  int       // frames the repetition processed
	lost    int       // offered frames neither served nor dropped
	frameMS []float64 // per-frame wall ms, where frames are timed one by one
	digest  string    // digest of the outputs; equal on every repetition
}

type workload struct {
	name string
	// setups is how many times a run sets up; setup_s is their median.
	setups int
	// buildUnits marks the workload whose timed unit is the Fig. 2 build
	// itself; elsewhere build_s is the build inside set-up.
	buildUnits bool
	new        func(seed int64) bench
}

var workloads = []workload{
	{name: "build", setups: 31, buildUnits: true, new: newBuild},
	{name: "stream", setups: 3, new: newStream},
	{name: "serve", setups: 3, new: newServe},
	{name: "fleet", setups: 3, new: newFleet},
}

func main() {
	name := flag.String("workload", "", "workload: build, stream, serve or fleet")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 20, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced phase and reports per-layer metrics")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	parallel.SetWorkers(workers)
	stamp := fmt.Sprintf("go=%s os=%s/%s nproc=%d gomaxprocs=%d workers=%d seed=%d",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), workers, *seed)
	fmt.Printf("perfbench workload=%s seconds=%g trace=%d\nmachine %s\n", w.name, *seconds, *trace, stamp)

	res, err := run(w, *seed, *seconds, *trace == 1, filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed)), stamp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := res.print(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.correct {
		os.Exit(1)
	}
}

// result is one run's outcome.
type result struct {
	correct           bool
	attempted, failed int
	metrics           metricSet
	notes             map[string]string // how each end-to-end value was taken
	checks            []string
}

func run(w *workload, seed int64, seconds float64, traced bool, tracePath, stamp string) (*result, error) {
	b := w.new(seed)
	res := &result{notes: map[string]string{}}
	setups, minReps := w.setups, 3
	if traced {
		// The traced run splits its time between an untraced and a traced
		// phase and sets up once each way: it reports layers, and only the
		// difference of the end-to-end metrics.
		setups, minReps = 1, 2
	}
	var setupS, buildS []float64
	for i := 0; i < setups; i++ {
		sw := startWatch()
		bs, err := b.setup(nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, sw.seconds())
		buildS = append(buildS, bs)
	}

	var checkErr []error
	if !traced {
		ph, err := measure(b, seconds, minReps, nil)
		if err != nil {
			return nil, err
		}
		values, notes := endToEnd(w, setupS, buildS, ph)
		res.metrics, res.notes = newMetricSet(endToEndDefs), notes
		for name, v := range values {
			res.metrics.set(name, v)
		}
		res.attempted, res.failed = ph.frames, ph.lost
		checkErr = append(checkErr, ph.err)
	} else {
		tr := newTracer()
		root := tr.begin("setup", -1)
		sw := startWatch()
		bs, err := b.setup(tr)
		if err != nil {
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
		tracedSetup := sw.seconds()
		tr.end(root)

		// The same work untraced and then traced, each for half the time:
		// the difference of the two is the tracing overhead.
		plain, err := measure(b, seconds/2, minReps, nil)
		if err != nil {
			return nil, err
		}
		withSpans, err := measure(b, seconds/2, minReps, tr)
		if err != nil {
			return nil, err
		}
		base, _ := endToEnd(w, setupS, buildS, plain)
		over, _ := endToEnd(w, []float64{tracedSetup}, []float64{bs}, withSpans)

		res.metrics = newMetricSet(perLayer)
		for _, d := range endToEndDefs {
			res.metrics.set("overhead."+d.name, over[d.name]-base[d.name])
		}
		res.metrics.set("parallel.cpu_util", plain.cpuS/plain.wallS)
		samples := len(plain.bestMS)
		if samples == 0 {
			samples = len(plain.unitS)
		}
		res.metrics.set("frame_ms.samples", float64(samples))
		res.metrics.set("synth.generate_s", tr.sumMS("synth.Generate")/1000)
		if err := b.layers(tr, res.metrics); err != nil {
			return nil, err
		}
		res.attempted = plain.frames + withSpans.frames
		res.failed = plain.lost + withSpans.lost
		checkErr = append(checkErr, plain.err, withSpans.err)
		if err := tr.write(tracePath, stamp); err != nil {
			return nil, err
		}
		res.checks = append(res.checks, fmt.Sprintf("spans %d written to %s", len(tr.spans), tracePath))
	}

	checkErr = append(checkErr, b.check())
	if err := errors.Join(checkErr...); err != nil {
		res.failed++
		res.checks = append(res.checks, "FAILED: "+err.Error())
	} else {
		res.checks = append(res.checks, "outputs ok")
	}
	res.correct = res.failed == 0
	return res, nil
}

// phase is one timed phase: repetitions of the workload's unit until the
// phase's time is up.
type phase struct {
	unitS  []float64 // stopwatch seconds per repetition
	frames int       // frames over all repetitions
	lost   int
	// bestMS holds, for workloads that time frames one by one, each
	// frame's fastest stopwatch time over the repetitions.
	bestMS    []float64
	perSecond []float64 // frames per stopwatch second, per repetition
	wallS     float64   // the whole phase, digesting included
	cpuS      float64   // process CPU seconds over the phase
	peakRSSMB float64   // process peak resident set at the end of the phase
	err       error     // an output check that failed during the phase
}

// measure repeats b's unit until seconds have passed and it ran at least
// minReps times, and checks that every repetition produced the same
// outputs and lost no frame.
func measure(b bench, seconds float64, minReps int, tr *tracer) (phase, error) {
	var ph phase
	digest := ""
	cpu0 := cpuTime()
	start := time.Now()
	for len(ph.unitS) < minReps || time.Since(start).Seconds() < seconds {
		u, err := b.unit(tr)
		if err != nil {
			return ph, err
		}
		if u.frames == 0 || u.wallS <= 0 {
			return ph, fmt.Errorf("repetition processed %d frames in %vs", u.frames, u.wallS)
		}
		rep := len(ph.unitS)
		ph.unitS = append(ph.unitS, u.wallS)
		ph.perSecond = append(ph.perSecond, float64(u.frames)/u.wallS)
		ph.frames += u.frames
		ph.lost += u.lost
		switch {
		case rep == 0:
			ph.bestMS = u.frameMS
		case len(u.frameMS) != len(ph.bestMS):
			return ph, fmt.Errorf("repetition %d timed %d frames, the first %d", rep+1, len(u.frameMS), len(ph.bestMS))
		default:
			for k, ms := range u.frameMS {
				ph.bestMS[k] = min(ph.bestMS[k], ms)
			}
		}
		if rep == 0 {
			digest = u.digest
		} else if u.digest != digest && ph.err == nil {
			ph.err = fmt.Errorf("repetition %d produced different outputs (digest %s, first %s)", rep+1, u.digest, digest)
		}
		if u.lost != 0 && ph.err == nil {
			ph.err = fmt.Errorf("repetition %d lost %d frames", rep+1, u.lost)
		}
	}
	ph.wallS = time.Since(start).Seconds()
	ph.cpuS = (cpuTime() - cpu0).Seconds()
	ph.peakRSSMB = peakRSSMB()
	return ph, nil
}

// endToEnd computes the end-to-end metrics of one phase, with a note on
// the samples behind each. Time on a shared machine is mostly added, when
// another tenant takes the CPU, so a frame timed on every pass reports its
// fastest pass, and a repeated measurement its fastest quartile: the
// lower quartile of its times, which one lucky repetition cannot move.
// The notes give the median and quartiles of the repetitions beside it.
// Set-up time is the median of the set-ups.
func endToEnd(w *workload, setupS, buildS []float64, ph phase) (map[string]float64, map[string]string) {
	v, note := map[string]float64{}, map[string]string{}
	spread := func(xs []float64) string {
		s := summarize(xs)
		return fmt.Sprintf("median %.6g q1 %.6g q3 %.6g n %d", s.median, s.q1, s.q3, s.n)
	}
	reps := len(ph.unitS)

	v["setup_s"] = quantile(setupS, 0.5)
	note["setup_s"] = "median of set-ups: " + spread(setupS)
	if w.buildUnits {
		buildS = ph.unitS
	}
	v["build_s"] = quantile(buildS, 0.25)
	note["build_s"] = "lower quartile of builds: " + spread(buildS)

	if ph.bestMS != nil {
		var sum float64
		for _, ms := range ph.bestMS {
			sum += ms
		}
		n := len(ph.bestMS)
		v["frames_per_s"] = float64(n) * 1000 / sum
		note["frames_per_s"] = fmt.Sprintf("%d frames over their summed times, each frame its fastest of %d passes; passes %s", n, reps, spread(ph.perSecond))
		v["frame_ms_p50"] = quantile(ph.bestMS, 0.5)
		v["frame_ms_p99"] = quantile(ph.bestMS, 0.99)
		note["frame_ms_p50"] = fmt.Sprintf("over %d frames, each its fastest of %d passes", n, reps)
		note["frame_ms_p99"] = fmt.Sprintf("over %d frames, %d beyond it", n, n-int(math.Ceil(0.99*float64(n))))
	} else {
		v["frames_per_s"] = quantile(ph.perSecond, 0.75)
		note["frames_per_s"] = "upper quartile of repetitions: " + spread(ph.perSecond)
		v["frame_ms_p50"] = 1000 / v["frames_per_s"]
		v["frame_ms_p99"] = v["frame_ms_p50"]
		note["frame_ms_p50"] = "wall ms per frame at frames_per_s; this workload does not time frames one by one"
		note["frame_ms_p99"] = note["frame_ms_p50"]
	}
	v["peak_rss_mb"] = ph.peakRSSMB
	note["peak_rss_mb"] = "process peak after the timed phase"
	return v, note
}

// print writes every metric by name with its unit and then the JSON
// result line, which is the last line of standard output.
func (r *result) print() error {
	if err := r.metrics.verify(); err != nil {
		return err
	}
	for _, m := range r.metrics {
		fmt.Printf("metric %-34s %14.6g %-9s %s\n", m.name, m.value, m.unit, r.notes[m.name])
	}
	for _, c := range r.checks {
		fmt.Println("check", c)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]value{}}
	for _, m := range r.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// metricSet is an ordered list of metrics; newMetricSet starts every
// defined metric at zero, so a run always reports the full list.
type metricSet []*metric

type metric struct {
	name, unit string
	value      float64
}

func newMetricSet(defs []metricDef) metricSet {
	m := make(metricSet, len(defs))
	for i, d := range defs {
		m[i] = &metric{name: d.name, unit: d.unit}
	}
	return m
}

// set assigns a defined metric; an unknown name is a programming error.
func (m metricSet) set(name string, v float64) {
	for _, x := range m {
		if x.name == name {
			x.value = v
			return
		}
	}
	panic("perfbench: undefined metric " + name)
}

// verify checks the metric list against BENCHMARK.json, when the run's
// directory has one, so the printed names and units cannot drift from it.
func (m metricSet) verify() error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if errors.Is(err, os.ErrNotExist) {
		return nil
	} else if err != nil {
		return err
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	want := spec.PerLayer
	if m[0].name == endToEndDefs[0].name {
		want = spec.EndToEnd
	}
	var a, b []string
	for _, x := range m {
		a = append(a, x.name+" "+x.unit)
	}
	for _, x := range want {
		b = append(b, x.Name+" "+x.Unit)
	}
	sort.Strings(a)
	sort.Strings(b)
	if strings.Join(a, ",") != strings.Join(b, ",") {
		return fmt.Errorf("metrics differ from BENCHMARK.json:\n  printed %v\n  listed  %v", a, b)
	}
	return nil
}
