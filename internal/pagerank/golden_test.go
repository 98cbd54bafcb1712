package pagerank

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// TestLegacyGoldens pins both legacy formulations bit for bit on a fixed
// graph and partition: global and local iteration counts, the simulated
// duration's float64 bits, the total shuffle record count and a SHA-256
// over the converged ranks' Float64bits. Any change to key order, value
// order within a key or float summation order in the mapreduce grouper,
// core's local runtime or the global emission breaks it.
func TestLegacyGoldens(t *testing.T) {
	subs := subgraphs(t, smallGraph(), 8)
	for _, tc := range []struct {
		name            string
		eager, combiner bool
		threads         int
		global          int
		local           int64
		durBits         uint64
		shuffle         int64
		rankHash        string
	}{
		{"general", false, false, 0, 51, 0, 0x408604c804e772f8, 227307, "eaaa1a0ce51c5f88559f3fab8bddb8bcd18da57f95bc33b00468fdb0665a9ae0"},
		{"general/combiner", false, true, 0, 51, 0, 0x408604c804e772f8, 227307, "eaaa1a0ce51c5f88559f3fab8bddb8bcd18da57f95bc33b00468fdb0665a9ae0"},
		{"eager", true, false, 0, 18, 1118, 0x406f0bb77bcb4511, 80226, "547e296df710ef16c3cb445c79213c2da2aab08a4549b7583436f4a7df8bdb03"},
		{"eager/threads=4", true, false, 4, 18, 1118, 0x406f0b35b4e3cd26, 80226, "547e296df710ef16c3cb445c79213c2da2aab08a4549b7583436f4a7df8bdb03"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Combiner = tc.combiner
			cfg.Threads = tc.threads
			res, err := Run(engine(), subs, cfg, tc.eager)
			if err != nil {
				t.Fatal(err)
			}
			s := res.Stats
			var shuffle int64
			for _, it := range s.PerIteration {
				shuffle += it.ShuffleRecords
			}
			if s.GlobalIterations != tc.global || s.LocalIterations != tc.local || shuffle != tc.shuffle {
				t.Errorf("global/local/shuffle = %d/%d/%d, want %d/%d/%d",
					s.GlobalIterations, s.LocalIterations, shuffle, tc.global, tc.local, tc.shuffle)
			}
			if bits := math.Float64bits(float64(s.Duration)); bits != tc.durBits {
				t.Errorf("duration bits %#x (%v), want %#x", bits, s.Duration, tc.durBits)
			}
			if got := floatsSHA256(res.Ranks); got != tc.rankHash {
				t.Errorf("rank hash %s, want %s", got, tc.rankHash)
			}
		})
	}
}

// floatsSHA256 hashes a vector by its values' little-endian Float64bits.
func floatsSHA256(vs []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
