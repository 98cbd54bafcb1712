// Command perfbench is the repository benchmark. It generates one
// workload's inputs from a seed, runs the workload's program call as a
// closed loop (one job in flight; the next starts when the previous
// returns) for a fixed time, checks every output, and prints the
// metrics as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"wall_s": {"value": ..., "unit": "s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// recorder or profiler attached. With --trace 1 a separate traced run
// yields the per-layer metrics: spans around each program call, the
// program's own run statistics and event recorder, and a CPU profile
// read with `go tool pprof`. README.md lists the workloads and what
// each metric is expected to move.
//
// Run it from the repository root through run.py, which builds it:
//
//	python3 perfbench/run.py --workload cc-fine --seed 10 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// minJobs is the fewest jobs each half of a traced run makes, however
// short --seconds is.
const minJobs = 2

// poolWorkers is GOMAXPROCS and every executor pool size: two workers,
// or fewer on a machine with fewer CPUs.
func poolWorkers() int { return min(2, runtime.NumCPU()) }

type options struct {
	workload workload
	seed     uint64
	seconds  time.Duration
	outDir   string
	goCmd    string
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name (see README.md)")
	seed := fs.Uint64("seed", defaultSeed, "input seed; the default's first input is the committed fixtures")
	seconds := fs.Float64("seconds", 10, "measured seconds of closed-loop jobs")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	outDir := fs.String("out", filepath.Join(".bench_build", "out"), "directory for result details, spans and profiles")
	goCmd := fs.String("go", "go", "go command used to read the CPU profile")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	runtime.GOMAXPROCS(poolWorkers())
	o := options{workload: w, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), outDir: *outDir, goCmd: *goCmd}

	id := newIdentity(o, *traced)
	line, err := json.Marshal(id)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "identity %s\n", line)

	b := &bench{w: w}
	var rep *report
	if *traced == 1 {
		rep, err = tracedRun(o, b)
	} else {
		rep, err = timedRun(o, b)
	}
	if err != nil {
		return err
	}
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, d := range rep.catalog {
		res.Metrics[d.name] = metric{Value: rep.values[d.name], Unit: d.unit}
	}
	for i, in := range rep.inputs {
		fmt.Fprintf(stdout, "input %d %+v: %d jobs", i, in.Seeds, len(in.Samples["wall_s"]))
		for _, name := range []string{"wall_s", "sim_s", "iters"} {
			if vs := in.Samples[name]; len(vs) > 0 {
				fmt.Fprintf(stdout, " %s=%.6g", name, median(vs))
			}
		}
		fmt.Fprintln(stdout)
	}
	detail := struct {
		Identity   identity      `json:"identity"`
		Result     result        `json:"result"`
		FailedFrac float64       `json:"failed_frac"`
		Inputs     []inputRecord `json:"inputs"`
		Failures   []string      `json:"failures"`
	}{id, res, float64(b.failed) / float64(b.attempted), rep.inputs, b.failures}
	data, err := json.MarshalIndent(detail, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, o.seed, *traced))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	for _, f := range b.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	fmt.Fprintf(stdout, "%s: %d jobs, %d failed; details in %s\n", w.name, res.Attempted, res.Failed, path)
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what one run measured: the declared metrics' values and
// the raw samples of every input.
type report struct {
	catalog []metricDef
	values  map[string]float64
	inputs  []inputRecord
}

// inputRecord holds one input's seeds and raw samples, by metric.
type inputRecord struct {
	Seeds   seeds                `json:"seeds"`
	Samples map[string][]float64 `json:"samples"`
}

func (r *inputRecord) add(name string, v float64) { r.Samples[name] = append(r.Samples[name], v) }

// timedRun measures the end-to-end metrics with tracing off. The
// inputs share the measured time evenly: each runs at least one job,
// and jobs continue while the closed loop is behind its schedule.
// setup_s is the median over the inputs' set-ups; every other metric
// is the median over inputs of the input's median job, which a rare
// slow input or a burst of machine noise does not move.
func timedRun(o options, b *bench) (*report, error) {
	w := o.workload
	rep := &report{catalog: endToEnd, values: map[string]float64{}}
	var setupS []float64
	var measured time.Duration // closed-loop time so far; set-up and references excluded
	for i := 0; i < inputsPerRun; i++ {
		s := seedsFor(o.seed, i)
		runtime.GC()
		start := time.Now()
		in, err := setup(w, s, nil, i)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if err := prepareReferences(w, s, in, i == 0); err != nil {
			return nil, err
		}
		b.use(s, in)
		if i == 0 {
			b.job(nil, nil, 0) // warm-up: checked, not timed
		}
		rec := inputRecord{Seeds: s, Samples: map[string][]float64{}}
		start = time.Now()
		due := o.seconds * time.Duration(i+1) / inputsPerRun
		for n := 0; n == 0 || measured+time.Since(start) < due; n++ {
			out, cost := b.job(nil, nil, b.attempted)
			if out == nil {
				continue
			}
			rec.add("wall_s", out.wall.Seconds())
			rec.add("sim_s", out.simS())
			rec.add("iters", out.iters())
			rec.add("alloc_mb", cost.allocMB)
		}
		measured += time.Since(start)
		rep.inputs = append(rep.inputs, rec)
	}
	for _, d := range endToEnd {
		var perInput []float64
		for _, rec := range rep.inputs {
			perInput = append(perInput, median(rec.Samples[d.name]))
		}
		rep.values[d.name] = median(perInput)
	}
	rep.values["setup_s"] = median(setupS)
	return rep, nil
}

// bench runs a workload's jobs, input by input, and checks every
// output.
type bench struct {
	w         workload
	s         seeds
	in        *inputs
	first     *jobOut // the current input's first job
	attempted int
	failed    int
	failures  []string
}

// use switches the bench to another input.
func (b *bench) use(s seeds, in *inputs) { b.s, b.in, b.first = s, in, nil }

// jobCost is what the process spent around one job.
type jobCost struct {
	allocMB  float64 // heap bytes allocated (MemStats.TotalAlloc delta) / 1e6
	cpuS     float64 // process user+system CPU seconds
	gcCycles float64
	gcPauseS float64
}

// job runs and checks one job. A job the program rejects with an
// error counts as failed and returns a nil output.
func (b *bench) job(rec *trace.Recorder, tr *tracer, run int) (*jobOut, jobCost) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	out, err := runJob(b.w, b.s, b.in, rec, tr, run)
	cpu1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	cost := jobCost{
		allocMB:  float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
		cpuS:     cpu1 - cpu0,
		gcCycles: float64(m1.NumGC - m0.NumGC),
		gcPauseS: float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e9,
	}
	b.attempted++
	var fails []string
	if err != nil {
		fails = []string{err.Error()}
	} else {
		tr.span("check", -1, run, func() { fails = checkJob(b.w, b.in, out, b.first) })
	}
	if len(fails) > 0 {
		b.failed++
		for _, f := range fails {
			b.failures = append(b.failures, fmt.Sprintf("job %d %+v: %s", run, b.s, f))
		}
	}
	if b.first == nil {
		b.first = out
	}
	return out, cost
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
