package sssp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// TestLegacyGoldens pins both legacy formulations bit for bit on a fixed
// weighted graph and partition: global and local iteration counts, the
// simulated duration's float64 bits, the total shuffle record count and
// a SHA-256 over the distances' Float64bits.
func TestLegacyGoldens(t *testing.T) {
	subs := subgraphs(t, smallGraph(), 8)
	for _, tc := range []struct {
		name     string
		eager    bool
		threads  int
		global   int
		local    int64
		durBits  uint64
		shuffle  int64
		distHash string
	}{
		{"general", false, 0, 17, 0, 0x406d52aeffe98522, 57889, "6c5723e8caab0a27f1b465f3e0d62361c8202319b2e34ddbb5a10c61d808095b"},
		{"eager", true, 0, 8, 226, 0x405ba55888071791, 31805, "6c5723e8caab0a27f1b465f3e0d62361c8202319b2e34ddbb5a10c61d808095b"},
		{"eager/threads=4", true, 4, 8, 226, 0x405ba552c2ef5e76, 31805, "6c5723e8caab0a27f1b465f3e0d62361c8202319b2e34ddbb5a10c61d808095b"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(engine(), subs, Config{Source: 0, Threads: tc.threads}, tc.eager)
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
			h := sha256.New()
			var b [8]byte
			for _, d := range res.Dist {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(d))
				h.Write(b[:])
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.distHash {
				t.Errorf("distance hash %s, want %s", got, tc.distHash)
			}
		})
	}
}
