package mapreduce

import (
	"math/rand"
	"strconv"
	"testing"
)

// grouperStream is a fixed reduce-partition record stream shaped like
// the PageRank general mode's on Graph A/16 (17.5K nodes, 16 reduce
// partitions): eight map tasks each emit an ascending run of node ids
// from one residue class mod 16, about 30% of the class each.
func grouperStream() []KV[int64, float64] {
	r := rand.New(rand.NewSource(1))
	var recs []KV[int64, float64]
	for task := 0; task < 8; task++ {
		for id := int64(0); id < 17500; id += 16 {
			if r.Intn(10) < 3 {
				recs = append(recs, KV[int64, float64]{Key: id, Value: r.Float64()})
			}
		}
	}
	return recs
}

// BenchmarkGrouper measures the reduce-side grouper alone on a warm,
// reused grouper, on the same stream with int64 keys and with the keys
// formatted as strings.
func BenchmarkGrouper(b *testing.B) {
	ints := grouperStream()
	strs := make([]KV[string, float64], len(ints))
	for i, kv := range ints {
		strs[i] = KV[string, float64]{Key: strconv.FormatInt(kv.Key, 10), Value: kv.Value}
	}
	b.Run("int64", func(b *testing.B) { benchGroup(b, ints) })
	b.Run("string", func(b *testing.B) { benchGroup(b, strs) })
}

func benchGroup[K comparable](b *testing.B, recs []KV[K, float64]) {
	var g grouper[K, float64]
	g.group(recs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.group(recs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/record")
}
