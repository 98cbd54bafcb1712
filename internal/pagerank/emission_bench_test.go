package pagerank

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/mapreduce"
	"repro/internal/partition"
)

// BenchmarkGlobalEmission measures pushContributions alone, the global
// emission of both formulations, over every partition of the modes
// workloads' input (Graph A/16, multilevel k=8) with its state frozen
// at the initial ranks. Each op is one general-mode map wave.
func BenchmarkGlobalEmission(b *testing.B) {
	g := graph.MustGenerate(graph.GraphAConfig().Scaled(16))
	a, err := partition.Partition(g, 8, partition.Options{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	subs, err := graph.BuildSubGraphs(g, a.Parts, a.K)
	if err != nil {
		b.Fatal(err)
	}
	states := make([]*state, len(subs))
	edges := 0
	for i, s := range subs {
		states[i] = newState(s)
		for li := range s.Nodes {
			edges += int(s.OutDeg[li])
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, st := range states {
			pushContributions(&mapreduce.TaskContext[int64, float64]{}, st)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*edges), "ns/edge")
}
