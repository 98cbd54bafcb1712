package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/async"
	"repro/internal/cc"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mapreduce"
	"repro/internal/pagerank"
	"repro/internal/partition"
	"repro/internal/trace"
)

// leg is the program call one job makes.
type leg int

const (
	legGeneral leg = iota // pagerank.Run, general formulation (mapreduce engine)
	legEager              // pagerank.Run, eager formulation (core local iterations)
	legAsync              // pagerank.RunAsync
	legCC                 // cc.RunAsync
)

func (l leg) String() string {
	return [...]string{"general", "eager", "async", "cc"}[l]
}

// workload is one fixed configuration of inputs and program call. Why
// each exists, and which layer it loads, is recorded in README.md.
type workload struct {
	name      string
	scale     int // Graph A nodes ÷ scale
	k         int // partitions
	leg       leg
	exec      async.Executor
	staleness int
	netScale  float64 // cluster LiveNetScale (live executor only)
}

var workloads = []workload{
	{name: "modes-general", scale: 16, k: 8, leg: legGeneral},
	{name: "modes-eager", scale: 16, k: 8, leg: legEager},
	{name: "modes-async", scale: 16, k: 8, leg: legAsync, exec: async.DES, staleness: 4},
	{name: "async-pagerank", scale: 4, k: 16, leg: legAsync, exec: async.Parallel, staleness: 4},
	{name: "cc-fine", scale: 2, k: 512, leg: legCC, exec: async.DES, staleness: 4},
	{name: "live-pagerank", scale: 4, k: 16, leg: legAsync, exec: async.Live, staleness: 0, netScale: 0.02},
}

func graphNodes(w workload) int { return graph.GraphAConfig().Scaled(w.scale).Nodes }

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// defaultSeed reproduces the committed fixtures: Graph A seed 0xA,
// partition seed 7, cluster seed 1 (cluster.EC2LargeCluster).
const defaultSeed = 0xA

// inputsPerRun is how many distinct inputs one timed run generates from
// its seed. An async run's step count moves by 25% or more from one
// graph seed or cluster seed to the next (the interleaving is chaotic
// in both, with a long tail of slow inputs), so a run reports the
// median over several inputs to keep its figures comparable between
// seeds.
const inputsPerRun = 12

// seeds are the three program seeds of one input.
type seeds struct {
	Graph     uint64 `json:"graph_seed"`
	Partition uint64 `json:"partition_seed"`
	Cluster   uint64 `json:"cluster_seed"`
}

// seedsFor maps the benchmark seed and an input index to the program
// seeds. Every program seed moves by the same offset from its fixture
// value, so input 0 of the default seed is exactly the fixtures; inputs
// of one run sit 2³² apart, so runs with different seeds share none.
func seedsFor(seed uint64, input int) seeds {
	s := seed + uint64(input)<<32
	off := s - defaultSeed
	return seeds{Graph: s, Partition: 7 + off, Cluster: 1 + off}
}

// inputs are one workload's generated inputs plus the references its
// outputs are checked against.
type inputs struct {
	g    *graph.Graph
	cut  int
	subs []*graph.SubGraph

	refRanks []float64       // PageRank power-iteration fixed point
	refComp  []graph.NodeID  // cc.Reference labels
	desStats *async.RunStats // parallel-executor runs must reproduce this DES run
}

// setup generates the graph, partitions it and builds the sub-graphs:
// the work setup_s measures. Each call is a span when tr is non-nil.
func setup(w workload, s seeds, tr *tracer, run int) (*inputs, error) {
	root := tr.begin("setup", -1, run)
	defer tr.end(root)
	gcfg := graph.GraphAConfig().Scaled(w.scale)
	gcfg.Seed = s.Graph
	in := &inputs{}
	var err error
	tr.span("generate", root, run, func() { in.g, err = graph.Generate(gcfg) })
	if err != nil {
		return nil, fmt.Errorf("generate graph: %w", err)
	}
	var a *partition.Assignment
	tr.span("partition", root, run, func() {
		a, err = partition.Partition(in.g, w.k, partition.Options{Method: partition.Multilevel, Seed: s.Partition})
	})
	if err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	tr.span("subgraphs", root, run, func() { in.subs, err = graph.BuildSubGraphs(in.g, a.Parts, a.K) })
	if err != nil {
		return nil, fmt.Errorf("build sub-graphs: %w", err)
	}
	in.cut = a.EdgeCut(in.g)
	return in, nil
}

// prepareReferences computes, outside any timing, what checkJob
// compares against. withDES adds the DES run that parallel-executor
// jobs must reproduce; it costs as much as a job, so a timed run makes
// it on its first input only.
func prepareReferences(w workload, s seeds, in *inputs, withDES bool) error {
	switch w.leg {
	case legCC:
		in.refComp = cc.Reference(in.g)
	default:
		in.refRanks = referenceRanks(in.g, pagerank.DefaultConfig().Damping)
	}
	if withDES && w.leg == legAsync && w.exec == async.Parallel {
		des := w
		des.exec = async.DES
		out, err := runJob(des, s, in, nil, nil, 0)
		if err != nil {
			return fmt.Errorf("DES reference run: %w", err)
		}
		in.desStats = out.async
	}
	return nil
}

// jobOut is one job's result. wall covers only the program call.
type jobOut struct {
	wall  time.Duration
	ranks []float64
	comp  []graph.NodeID
	core  *core.RunStats  // general and eager legs
	async *async.RunStats // async and cc legs
}

func (o *jobOut) converged() bool {
	if o.core != nil {
		return o.core.Converged
	}
	return o.async.Converged
}

// simS is the simulated time to convergence (measured makespan under
// the live executor).
func (o *jobOut) simS() float64 {
	if o.core != nil {
		return o.core.Duration.Seconds()
	}
	return o.async.Duration.Seconds()
}

// iters is global MapReduce iterations for the legacy legs and mean
// steps per worker for the async legs.
func (o *jobOut) iters() float64 {
	if o.core != nil {
		return float64(o.core.GlobalIterations)
	}
	return o.async.MeanSteps
}

func newCluster(w workload, s seeds) *cluster.Cluster {
	cfg := cluster.EC2LargeCluster()
	cfg.Seed = s.Cluster
	if w.exec == async.Live {
		cfg.LiveNetScale = w.netScale
	}
	return cluster.New(cfg)
}

// runJob makes the workload's one program call. rec, when non-nil, is
// attached as the async event recorder.
func runJob(w workload, s seeds, in *inputs, rec *trace.Recorder, tr *tracer, run int) (*jobOut, error) {
	c := newCluster(w, s)
	opt := async.Options{Staleness: w.staleness, Executor: w.exec, Workers: poolWorkers(), Trace: rec}
	out := &jobOut{}
	var err error
	start := time.Now()
	tr.span(w.leg.String(), -1, run, func() {
		switch w.leg {
		case legGeneral, legEager:
			var r *pagerank.Result
			r, err = pagerank.Run(mapreduce.NewEngine(c), in.subs, pagerank.DefaultConfig(), w.leg == legEager)
			if err == nil {
				out.ranks, out.core = r.Ranks, r.Stats
			}
		case legAsync:
			var r *pagerank.AsyncResult
			r, err = pagerank.RunAsync(c, in.subs, pagerank.DefaultConfig(), opt)
			if err == nil {
				out.ranks, out.async = r.Ranks, r.Stats
			}
		case legCC:
			var r *cc.AsyncResult
			r, err = cc.RunAsync(c, in.subs, cc.Config{}, opt)
			if err == nil {
				out.comp, out.async = r.Comp, r.Stats
			}
		}
	})
	out.wall = time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.leg, err)
	}
	return out, nil
}

// rankTolerance is the largest absolute rank error accepted against the
// reference fixed point; the pagerank package's own tests use the same.
const rankTolerance = 1e-3

// checkJob returns every output check the job fails. first is the
// first job on the same input (nil for that job itself): executors
// other than live must repeat its simulated quantities exactly.
func checkJob(w workload, in *inputs, out, first *jobOut) []string {
	var fails []string
	if !out.converged() {
		fails = append(fails, "did not converge")
	}
	if in.refRanks != nil {
		if d, u := maxAbsDiff(out.ranks, in.refRanks); d > rankTolerance {
			fails = append(fails, fmt.Sprintf("rank of node %d off the reference by %.3g", u, d))
		}
	}
	if in.refComp != nil {
		if u := firstMismatch(out.comp, in.refComp); u >= 0 {
			fails = append(fails, fmt.Sprintf("component label of node %d differs from cc.Reference", u))
		}
	}
	if st := out.async; st != nil {
		if w.staleness >= 0 && st.MaxLead > w.staleness {
			fails = append(fails, fmt.Sprintf("MaxLead %d exceeds staleness bound %d", st.MaxLead, w.staleness))
		}
		if d := in.desStats; d != nil && (st.Duration != d.Duration || st.Steps != d.Steps) {
			fails = append(fails, fmt.Sprintf("%v run %v/%d steps differs from DES %v/%d",
				w.exec, st.Duration, st.Steps, d.Duration, d.Steps))
		}
	}
	if first != nil && w.exec != async.Live && simSignature(out) != simSignature(first) {
		fails = append(fails, "simulated quantities differ from the first run")
	}
	return fails
}

// simSignature renders the quantities a deterministic executor must
// repeat bit for bit.
func simSignature(o *jobOut) string {
	if o.core != nil {
		s := o.core
		return fmt.Sprintf("%x %d %d", math.Float64bits(s.Duration.Seconds()), s.GlobalIterations, s.LocalIterations)
	}
	s := o.async
	return fmt.Sprintf("%x %d %d %d %d %x %d %v", math.Float64bits(s.Duration.Seconds()), s.Steps,
		s.Publishes, s.PushedBytes, s.GateWaits, math.Float64bits(s.GateWaitTime.Seconds()), s.MaxLead, s.PerWorkerSteps)
}

// referenceRanks solves the PageRank fixed point by plain power
// iteration on the whole graph, in the program's formulation: every
// node starts at rank 1 and takes (1-d) + d·Σ rank(u)/outdeg(u) over its
// in-neighbors u. It iterates far past the program's own epsilon so the
// tolerance check measures the program's error alone.
func referenceRanks(g *graph.Graph, damping float64) []float64 {
	n := g.NumNodes()
	ranks := make([]float64, n)
	contrib := make([]float64, n)
	for i := range ranks {
		ranks[i] = 1
	}
	deg := g.OutDegrees()
	for iter := 0; iter < 10000; iter++ {
		clear(contrib)
		for u, adj := range g.Out {
			if deg[u] == 0 {
				continue
			}
			c := ranks[u] / float64(deg[u])
			for _, v := range adj {
				contrib[v] += c
			}
		}
		delta := 0.0
		for v := range ranks {
			nr := (1 - damping) + damping*contrib[v]
			delta = math.Max(delta, math.Abs(nr-ranks[v]))
			ranks[v] = nr
		}
		if delta < 1e-10 {
			break
		}
	}
	return ranks
}

// maxAbsDiff returns the largest |a[i]-b[i]| and its index; a length
// mismatch or a NaN counts as an infinite difference.
func maxAbsDiff(a, b []float64) (float64, int) {
	if len(a) != len(b) {
		return math.Inf(1), -1
	}
	worst, at := 0.0, -1
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if math.IsNaN(d) {
			return math.Inf(1), i
		}
		if d > worst {
			worst, at = d, i
		}
	}
	return worst, at
}

// firstMismatch returns the first index where a and b differ, or -1.
func firstMismatch(a, b []graph.NodeID) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
