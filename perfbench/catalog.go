package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// metricDef is one metric the benchmark declares in BENCHMARK.json.
type metricDef struct{ name, unit, better string }

// endToEnd are printed with --trace 0, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"sim_s", "sim-s", "lower"},
	{"iters", "iters", "lower"},
	{"alloc_mb", "MB", "lower"},
}

// perLayer are printed with --trace 1, on every workload; a layer the
// workload never enters reads 0. README.md maps each to the end-to-end
// metric and workload it should move.
var perLayer = []metricDef{
	{"setup.generate_s", "s", "lower"},
	{"setup.partition_s", "s", "lower"},
	{"setup.subgraphs_s", "s", "lower"},
	{"partition.cut_frac", "ratio", "lower"},

	{"mapreduce.run_s", "s", "lower"},
	{"mapreduce.jobs", "count", "lower"},
	{"mapreduce.shuffle_records", "count", "lower"},
	{"mapreduce.shuffle_mb", "MB", "lower"},
	{"mapreduce.ns_per_record", "ns", "lower"},
	{"mapreduce.sim_overhead_s", "sim-s", "lower"},
	{"mapreduce.sim_map_s", "sim-s", "lower"},
	{"mapreduce.sim_shuffle_s", "sim-s", "lower"},
	{"mapreduce.sim_reduce_s", "sim-s", "lower"},

	{"core.run_s", "s", "lower"},
	{"core.local_iters", "count", "lower"},
	{"core.ns_per_local_iter", "ns", "lower"},
	{"core.shuffle_records", "count", "lower"},
	{"core.sim_map_s", "sim-s", "lower"},
	{"core.sim_shuffle_s", "sim-s", "lower"},

	{"async.run_s", "s", "lower"},
	{"async.steps", "count", "lower"},
	{"async.publishes", "count", "lower"},
	{"async.pushed_mb", "MB", "lower"},
	{"async.ns_per_step", "ns", "lower"},
	{"async.gate_waits", "count", "lower"},
	{"async.gate_wait_sim_s", "sim-s", "lower"},
	{"async.max_lead", "versions", "lower"},

	{"cpu.samples", "count", "higher"},
	{"cpu.kernel", "ratio", "higher"},
	{"cpu.adapter", "ratio", "lower"},
	{"cpu.async", "ratio", "lower"},
	{"cpu.engine", "ratio", "lower"},
	{"cpu.pool", "ratio", "lower"},
	{"cpu.trace", "ratio", "lower"},
	{"cpu.gc", "ratio", "lower"},
	{"cpu.other", "ratio", "lower"},

	{"parallel.speculated_frac", "ratio", "higher"},
	{"parallel.spec_depth", "count", "higher"},
	{"parallel.invalidated_frac", "ratio", "lower"},
	{"parallel.cpu_per_wall", "ratio", "higher"},

	{"live.compute_s", "s", "lower"},
	{"live.overlap", "ratio", "higher"},
	{"live.steals", "count", "lower"},
	{"live.steals_per_step", "ratio", "lower"},
	{"live.gate_wait_s", "s", "lower"},
	{"live.stall_s", "s", "lower"},
	{"live.steps", "count", "lower"},

	{"sim.compute_s", "sim-s", "lower"},
	{"sim.gate_wait_s", "sim-s", "lower"},
	{"sim.stall_s", "sim-s", "lower"},

	{"trace.events", "count", "lower"},
	{"trace.dropped", "count", "lower"},
	{"bench.traced_overhead", "ratio", "lower"},
	{"gc.cycles", "count", "lower"},
	{"gc.pause_s", "s", "lower"},
}

// identity is printed and stored with every result, so a result from
// other hardware, toolchain or source cannot pass for this one.
type identity struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Inputs     int     `json:"inputs"` // see seedsFor for each input's seeds
	Nodes      int     `json:"graph_nodes"`
	K          int     `json:"partitions"`
	Leg        string  `json:"leg"`
	Executor   string  `json:"executor"`
	Staleness  int     `json:"staleness"`
	Workers    int     `json:"workers"`
	NetScale   float64 `json:"live_net_scale"`
	Seconds    float64 `json:"seconds"`
	Trace      int     `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	GitRev     string  `json:"git_rev"`
	SourceHash string  `json:"source_sha256"`
}

func newIdentity(o options, traced int) identity {
	w := o.workload
	inputs := inputsPerRun
	if traced == 1 {
		inputs = 1
	}
	executor := "mapreduce"
	if w.leg == legAsync || w.leg == legCC {
		executor = w.exec.String()
	}
	return identity{
		Workload: w.name, Seed: o.seed, Inputs: inputs,
		Nodes: graphNodes(w), K: w.k, Leg: w.leg.String(), Executor: executor, Staleness: w.staleness,
		Workers: poolWorkers(), NetScale: w.netScale, Seconds: o.seconds.Seconds(), Trace: traced,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: cpuModel(),
		GoVersion: runtime.Version(), GitRev: gitRev(), SourceHash: sourceHash("."),
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

// gitRev is the checked-out revision, or "none" outside a git work tree
// (sourceHash then identifies the source).
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests every Go source and module file under root, in
// walk order, skipping build output and version-control directories.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
