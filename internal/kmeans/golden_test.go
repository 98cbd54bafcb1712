package kmeans

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// TestLegacyGoldens pins both legacy formulations bit for bit on a fixed
// census sample: global and local iteration counts, the simulated
// duration's float64 bits, the total shuffle record count and a SHA-256
// over the final centroids' Float64bits.
func TestLegacyGoldens(t *testing.T) {
	pts := smallCensus(t)
	for _, tc := range []struct {
		name         string
		eager        bool
		threads      int
		global       int
		local        int64
		durBits      uint64
		shuffle      int64
		centroidHash string
	}{
		{"general", false, 0, 8, 0, 0x405bc14525cd159e, 1658, "1cadfda190d008281c1c5f3ad074c755c6523fe603abe3da5cc644e5cf1e585f"},
		{"eager", true, 0, 11, 331, 0x40631a72583731ae, 2276, "5b50f3ea5dd09918bd5fbee799a31606060ea7b8d0ba3d20c582963cb0e78a6c"},
		{"eager/threads=4", true, 4, 11, 331, 0x406312977ebd95b8, 2276, "5b50f3ea5dd09918bd5fbee799a31606060ea7b8d0ba3d20c582963cb0e78a6c"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(0.01)
			cfg.Threads = tc.threads
			res, err := Run(engine(), pts, 13, cfg, tc.eager)
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
			for _, cen := range res.Centroids {
				for _, v := range cen {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
					h.Write(b[:])
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.centroidHash {
				t.Errorf("centroid hash %s, want %s", got, tc.centroidHash)
			}
		})
	}
}
