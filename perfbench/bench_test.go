package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// small shrinks a workload to a 2000-node graph so the checks run in
// milliseconds.
func small(name string) workload {
	w, err := findWorkload(name)
	if err != nil {
		panic(err)
	}
	w.scale, w.k = 140, 8
	return w
}

func prepared(t *testing.T, w workload) *inputs {
	t.Helper()
	s := seedsFor(defaultSeed, 0)
	in, err := setup(w, s, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := prepareReferences(w, s, in, true); err != nil {
		t.Fatal(err)
	}
	return in
}

// TestPerturbedOutputsFail shows every output check can fail: a rank or
// component label moved off the reference is reported, and a bench
// whose reference disagrees with the program counts the job as failed,
// which is what the result's failed count (and failed_frac) report.
func TestPerturbedOutputsFail(t *testing.T) {
	for _, name := range []string{"modes-general", "modes-async", "async-pagerank", "cc-fine"} {
		t.Run(name, func(t *testing.T) {
			w := small(name)
			in := prepared(t, w)
			b := &bench{w: w}
			b.use(seedsFor(defaultSeed, 0), in)
			out, _ := b.job(nil, nil, 0)
			if out == nil || b.failed != 0 {
				t.Fatalf("clean job failed: %v", b.failures)
			}
			if fails := checkJob(w, in, out, out); len(fails) != 0 {
				t.Fatalf("clean output reported %v", fails)
			}

			bad := *out
			if out.ranks != nil {
				bad.ranks = append([]float64(nil), out.ranks...)
				bad.ranks[len(bad.ranks)/2] += 2 * rankTolerance
			} else {
				bad.comp = append(bad.comp[:0:0], out.comp...)
				bad.comp[len(bad.comp)-1]++
			}
			if fails := checkJob(w, in, &bad, out); len(fails) == 0 {
				t.Fatal("perturbed output passed the checks")
			}

			if in.refRanks != nil {
				in.refRanks[0] += 1
			} else {
				in.refComp[0]++
			}
			b.job(nil, nil, 1)
			if b.failed != 1 || b.attempted != 2 {
				t.Fatalf("perturbed reference counted as %d failed of %d", b.failed, b.attempted)
			}
		})
	}
}

// TestSimulatedQuantitiesRepeat shows the repeat check catches a
// deterministic run whose simulated result moved.
func TestSimulatedQuantitiesRepeat(t *testing.T) {
	w := small("modes-async")
	in := prepared(t, w)
	first, err := runJob(w, seedsFor(defaultSeed, 0), in, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	moved := *first
	st := *first.async
	st.Steps++
	moved.async = &st
	fails := checkJob(w, in, &moved, first)
	if len(fails) != 1 || !strings.Contains(fails[0], "first run") {
		t.Fatalf("moved steps reported %v", fails)
	}
	st = *first.async
	st.MaxLead = w.staleness + 1
	moved.async = &st
	if fails := checkJob(w, in, &moved, nil); len(fails) != 1 || !strings.Contains(fails[0], "MaxLead") {
		t.Fatalf("MaxLead over the bound reported %v", fails)
	}
}

// TestDefaultSeedReproducesFixtures pins the default seed to the
// fixture seeds the program's own tests and benches use.
func TestDefaultSeedReproducesFixtures(t *testing.T) {
	if s := seedsFor(defaultSeed, 0); s != (seeds{Graph: 0xA, Partition: 7, Cluster: 1}) {
		t.Fatalf("default seed maps to %+v", s)
	}
}

func TestLayerOf(t *testing.T) {
	cases := []struct {
		want  string
		stack []string
	}{
		{"kernel", []string{"runtime.memmove", "repro/internal/pagerank.(*asyncWorkload).Step", "repro/internal/async.runStep[go.shape.[]float64]", "main.runJob"}},
		{"kernel", []string{"repro/internal/cc.(*asyncWorkload).Step", "repro/internal/workpool.(*Pool).run"}},
		{"engine", []string{"runtime.mapassign_fast64", "repro/internal/pagerank.pushContributions", "repro/internal/pagerank.buildJob.func1", "repro/internal/mapreduce.runTask[go.shape.int64]"}},
		{"adapter", []string{"runtime.makeslice", "repro/internal/cc.buildAsyncWorkload", "repro/internal/cc.RunAsync", "main.runJob"}},
		{"async", []string{"repro/internal/simtime.(*EventHeap).Push", "repro/internal/async.Drive[go.shape.[]float64]", "repro/internal/pagerank.RunAsync"}},
		{"trace", []string{"repro/internal/trace.(*Recorder).Emit", "repro/internal/async.(*core[go.shape.[]int32]).publish"}},
		{"gc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.gcBgMarkWorker"}},
		{"other", []string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestClassifyTraces(t *testing.T) {
	text := `File: perfbench
Type: cpu
-----------+-------------------------------------------------------
     300ms   repro/internal/pagerank.(*asyncWorkload).Step
             repro/internal/async.runStep[go.shape.[]float64]
-----------+-------------------------------------------------------
     100ms   runtime.scanobject
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
`
	shares, err := classifyTraces(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if shares["cpu.kernel"] != 0.75 || shares["cpu.gc"] != 0.25 || shares["cpu.samples"] != 40 {
		t.Fatalf("shares %v", shares)
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the metrics
// and workloads this program prints in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	for _, c := range []struct {
		declared []def
		catalog  []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.declared) != len(c.catalog) {
			t.Errorf("BENCHMARK.json declares %d metrics, program prints %d", len(c.declared), len(c.catalog))
			continue
		}
		for i, d := range c.declared {
			if m := c.catalog[i]; d != (def{m.name, m.unit, m.better}) {
				t.Errorf("BENCHMARK.json metric %d is %+v, program has %+v", i, d, m)
			}
		}
	}
}
