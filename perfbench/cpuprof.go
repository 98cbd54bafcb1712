package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

// cpuShares reads a CPU profile with `go tool pprof -traces` and
// returns each layer's share of the sampled CPU time (cpu.*), plus the
// sample count the shares are taken of (cpu.samples).
func cpuShares(goCmd, profile string) (map[string]float64, error) {
	cmd := exec.Command(goCmd, "tool", "pprof", "-traces", profile)
	text, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return classifyTraces(bytes.NewReader(text))
}

// cpuLayers are the cpu.* shares, by layer.
var cpuLayers = []string{"kernel", "adapter", "async", "engine", "pool", "trace", "gc", "other"}

// repoLayer maps a repository package to the layer its own frames are
// charged to. Workload packages are resolved by their caller instead
// (see layerOf); packages absent here are transparent.
var repoLayer = map[string]string{
	"async":     "async",
	"simtime":   "async",
	"mapreduce": "engine",
	"core":      "engine",
	"workpool":  "pool",
	"trace":     "trace",
}

// workloadPkgs hold the Step kernels, the legacy map/reduce functions
// and the async plan builders.
var workloadPkgs = map[string]bool{"pagerank": true, "cc": true}

// repoPackage returns the internal package a frame's function belongs
// to ("" for runtime, standard-library and benchmark frames).
func repoPackage(fn string) string {
	rest, ok := strings.CutPrefix(fn, "repro/internal/")
	if !ok {
		return ""
	}
	pkg, _, _ := strings.Cut(rest, ".")
	return pkg
}

// layerOf charges one sample's stack, leaf first, to a layer. Runtime
// and library callees are charged to the nearest repository frame. A
// workload frame is kernel when the async scheduler or work pool
// called it (Step, and the Residual/Init hooks), engine when the legacy
// mapreduce or core runtime called it (the map and reduce functions),
// and adapter when nothing in the program called it (RunAsync's plan
// build and result gather). Stacks with no repository frame are gc when
// they are the garbage collector's background work, else other.
func layerOf(stack []string) string {
	for i, fn := range stack {
		pkg := repoPackage(fn)
		if workloadPkgs[pkg] {
			for _, caller := range stack[i+1:] {
				switch repoLayer[repoPackage(caller)] {
				case "async", "pool":
					return "kernel"
				case "engine":
					return "engine"
				}
			}
			return "adapter"
		}
		if l, ok := repoLayer[pkg]; ok {
			return l
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gcBgMarkWorker") || strings.HasPrefix(fn, "runtime.bgsweep") ||
			strings.HasPrefix(fn, "runtime.bgscavenge") {
			return "gc"
		}
	}
	return "other"
}

// classifyTraces parses `pprof -traces` output: samples separated by
// dashed rules, each a value and leaf function on its first line and
// one caller per following line.
func classifyTraces(r io.Reader) (map[string]float64, error) {
	byLayer := map[string]time.Duration{}
	var total time.Duration
	var stack []string
	var value time.Duration
	flush := func() {
		if len(stack) > 0 {
			byLayer[layerOf(stack)] += value
			total += value
		}
		stack, value = stack[:0], 0
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 || !strings.HasPrefix(line, " ") {
			continue // header lines
		}
		if len(stack) == 0 && len(fields) >= 2 {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				continue
			}
			value = d
			fields = fields[1:]
		}
		stack = append(stack, fields[0])
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	if total == 0 {
		return nil, fmt.Errorf("CPU profile holds no samples")
	}
	// runtime/pprof samples at 100 Hz: one sample per 10 ms of CPU.
	shares := map[string]float64{"cpu.samples": float64(total / (10 * time.Millisecond))}
	for _, l := range cpuLayers {
		shares["cpu."+l] = float64(byLayer[l]) / float64(total)
	}
	return shares, nil
}
