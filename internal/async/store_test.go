package async

import (
	"sync"
	"testing"

	"repro/internal/simtime"
)

func TestStorePublishRead(t *testing.T) {
	s := NewStore[int](2)
	if s.NumParts() != 2 {
		t.Fatalf("NumParts = %d", s.NumParts())
	}
	if _, ok := s.Read(0); ok {
		t.Fatal("empty partition readable")
	}
	if s.Latest(0) != -1 {
		t.Fatal("empty partition has a latest version")
	}
	mustPublish := func(p, v int, at simtime.Duration, d int) {
		t.Helper()
		if err := s.Publish(p, v, at, d); err != nil {
			t.Fatal(err)
		}
	}
	mustPublish(0, 0, 0, 100)
	mustPublish(0, 1, 5*simtime.Second, 101)
	mustPublish(0, 2, 9*simtime.Second, 102)

	snap, ok := s.Read(0)
	if !ok || snap.Version != 2 || snap.Data != 102 {
		t.Fatalf("Read = %+v, %v", snap, ok)
	}
	// Time-based visibility picks the newest version at or before t.
	cases := []struct {
		at      simtime.Duration
		version int
	}{
		{0, 0}, {4 * simtime.Second, 0}, {5 * simtime.Second, 1},
		{8 * simtime.Second, 1}, {100 * simtime.Second, 2},
	}
	for _, c := range cases {
		snap, ok := s.ReadAt(0, c.at)
		if !ok || snap.Version != c.version {
			t.Fatalf("ReadAt(%v) = v%d, want v%d", c.at, snap.Version, c.version)
		}
	}
}

func TestStoreRejectsBadPublishes(t *testing.T) {
	s := NewStore[int](1)
	if err := s.Publish(0, 1, 0, 0); err == nil {
		t.Fatal("version gap accepted")
	}
	if err := s.Publish(0, 0, 5*simtime.Second, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Publish(0, 0, 6*simtime.Second, 0); err == nil {
		t.Fatal("duplicate version accepted")
	}
	if err := s.Publish(0, 1, 1*simtime.Second, 0); err == nil {
		t.Fatal("time regression accepted")
	}
	if err := s.Publish(2, 0, 0, 0); err == nil {
		t.Fatal("out-of-range partition accepted")
	}
}

// TestStoreCursorAgreement: ReadAtFrom must agree with the binary-search
// ReadAt for every hint, including overshooting and out-of-range ones —
// the cursor is a performance input, never a correctness one.
func TestStoreCursorAgreement(t *testing.T) {
	s := NewStore[int](1)
	// Irregular spacing, including consecutive equal publication times.
	ats := []simtime.Duration{0, 1, 1, 3, 7, 7, 7, 20, 21, 50}
	for v, at := range ats {
		if err := s.Publish(0, v, at*simtime.Second, v); err != nil {
			t.Fatal(err)
		}
	}
	for at := simtime.Duration(-1); at <= 55; at++ {
		want, wantOK := s.ReadAt(0, at*simtime.Second)
		for hint := -2; hint <= len(ats)+1; hint++ {
			got, idx, ok := s.ReadAtFrom(0, at*simtime.Second, hint)
			if ok != wantOK {
				t.Fatalf("at=%v hint=%d: ok=%v, ReadAt ok=%v", at, hint, ok, wantOK)
			}
			if !ok {
				continue
			}
			if got.Version != want.Version || got.At != want.At || got.Data != want.Data {
				t.Fatalf("at=%v hint=%d: got v%d, ReadAt v%d", at, hint, got.Version, want.Version)
			}
			if idx != got.Version {
				t.Fatalf("at=%v hint=%d: returned cursor %d for v%d", at, hint, idx, got.Version)
			}
		}
	}
}

// TestStoreShardedProperty is the property test for the sharded store:
// per-partition publishers race against three reader populations —
// monotone cursor readers (the engine's access pattern), random-hint
// readers checking cursor/binary-search agreement, and blocking version
// waiters — while the test asserts visibility monotonicity (a reader
// moving forward in time never sees Version or At go backwards) and
// payload consistency. Run with -race (the CI workflow does).
func TestStoreShardedProperty(t *testing.T) {
	const (
		parts    = 6
		versions = 300
	)
	s := NewStore[int](parts)
	var wg sync.WaitGroup

	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for v := 0; v < versions; v++ {
				// Distinct per-partition spacing; occasional equal times.
				at := simtime.Duration(v-v%3) * simtime.Duration(p+1) * simtime.Millisecond
				if err := s.Publish(p, v, at, p*10000+v); err != nil {
					t.Errorf("publish p%d v%d: %v", p, v, err)
					return
				}
			}
		}(p)
	}

	// Monotone cursor readers: advance a per-partition clock and cursor
	// exactly like an engine worker; visibility must be monotone and the
	// cursor result must match the searching read.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cursors := make([]int, parts)
			lastV := make([]int, parts)
			lastAt := make([]simtime.Duration, parts)
			for i := range lastV {
				lastV[i] = -1
			}
			for at := simtime.Duration(0); at < versions; at += simtime.Duration(r + 1) {
				for p := 0; p < parts; p++ {
					vt := at * simtime.Duration(p+1) * simtime.Millisecond
					// The searching read goes first: the store may grow
					// between the two reads, and growth only moves
					// visibility forward, so the cursor read may be newer
					// but never older, and never beyond vt.
					chk, chkOK := s.ReadAt(p, vt)
					snap, idx, ok := s.ReadAtFrom(p, vt, cursors[p])
					if chkOK && (!ok || snap.Version < chk.Version) {
						t.Errorf("cursor/binary-search disagree on p%d at %v: v%d vs v%d (ok=%v)",
							p, vt, snap.Version, chk.Version, ok)
					}
					if !ok {
						continue // p's version 0 not published yet
					}
					if snap.At > vt {
						t.Errorf("cursor read on p%d at %v returned v%d visible only at %v",
							p, vt, snap.Version, snap.At)
					}
					cursors[p] = idx
					if snap.Version < lastV[p] || snap.At < lastAt[p] {
						t.Errorf("visibility regressed on p%d: v%d@%v after v%d@%v",
							p, snap.Version, snap.At, lastV[p], lastAt[p])
					}
					lastV[p], lastAt[p] = snap.Version, snap.At
					if snap.Data != p*10000+snap.Version {
						t.Errorf("torn read p%d: v%d data %d", p, snap.Version, snap.Data)
					}
				}
			}
		}(r)
	}

	// Random-hint readers: any hint must reproduce the searching read.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			rnd := uint32(seed*2654435761 + 1)
			for i := 0; i < 4000; i++ {
				rnd = rnd*1664525 + 1013904223
				p := int(rnd>>8) % parts
				vt := simtime.Duration(int(rnd>>16)%versions) * simtime.Millisecond * simtime.Duration(p+1)
				hint := int(rnd>>4)%(versions+2) - 1
				want, wantOK := s.ReadAt(p, vt)
				got, _, ok := s.ReadAtFrom(p, vt, hint)
				// The store may have grown between the two reads; only a
				// same-version comparison is meaningful, and growth only
				// moves visibility forward.
				if wantOK && !ok {
					t.Errorf("p%d at %v: hinted read lost a visible version", p, vt)
				}
				if wantOK && ok && got.Version < want.Version {
					t.Errorf("p%d at %v hint %d: hinted read went backwards: v%d < v%d",
						p, vt, hint, got.Version, want.Version)
				}
			}
		}(r)
	}

	// Blocking waiters: WaitVersion returns exactly the requested version.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for p := 0; p < parts; p++ {
				for _, v := range []int{0, versions / 2, versions - 1} {
					snap, ok := s.WaitVersion(p, v)
					if !ok || snap.Version != v || snap.Data != p*10000+v {
						t.Errorf("WaitVersion(p%d, v%d) = v%d data %d ok=%v", p, v, snap.Version, snap.Data, ok)
					}
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestStoreSealWakesWaiters is the regression test for the crash/stop
// wakeup path: a WaitVersion caller blocked on a version that will
// never arrive — its owner crashed for good or was force-stopped — must
// be woken by Seal and observe the failure (ok=false) instead of
// sleeping forever. Before Seal existed only a publish signalled the
// shard condition variable, so waiters on a dead partition deadlocked.
// Run with -race (the CI workflow does).
func TestStoreSealWakesWaiters(t *testing.T) {
	const waiters = 8
	s := NewStore[int](2)
	if err := s.Publish(0, 0, 0, 7); err != nil {
		t.Fatal(err)
	}

	results := make(chan bool, waiters)
	var started sync.WaitGroup
	for i := 0; i < waiters; i++ {
		started.Add(1)
		go func() {
			started.Done()
			_, ok := s.WaitVersion(0, 5) // version 5 will never be published
			results <- ok
		}()
	}
	started.Wait()
	// Concurrent publisher on the other partition keeps the store busy
	// while the waiters block.
	if err := s.Publish(1, 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	s.Seal(0)
	for i := 0; i < waiters; i++ {
		if ok := <-results; ok {
			t.Fatal("waiter on a sealed partition reported success for a version that never existed")
		}
	}
	if !s.Sealed(0) || s.Sealed(1) {
		t.Fatalf("seal state wrong: p0=%v p1=%v", s.Sealed(0), s.Sealed(1))
	}

	// History published before the seal stays readable, with and without
	// blocking; new publishes are rejected.
	if snap, ok := s.WaitVersion(0, 0); !ok || snap.Data != 7 {
		t.Fatalf("pre-seal version lost: %+v ok=%v", snap, ok)
	}
	if snap, ok := s.Read(0); !ok || snap.Data != 7 {
		t.Fatalf("sealed partition unreadable: %+v ok=%v", snap, ok)
	}
	if err := s.Publish(0, 1, simtime.Second, 8); err == nil {
		t.Fatal("publish to sealed partition accepted")
	}
	// Waiting on a sealed partition returns immediately.
	if _, ok := s.WaitVersion(0, 9); ok {
		t.Fatal("WaitVersion on sealed partition claimed a future version")
	}
	// Seal is idempotent.
	s.Seal(0)
}

// TestStoreConcurrentAccess is the race-detector workout for the shared
// store: writers append monotone version chains per partition while
// readers mix latest reads, time-bounded reads, and blocking version
// waits. Run with -race (the CI workflow does).
func TestStoreConcurrentAccess(t *testing.T) {
	const (
		parts    = 8
		versions = 200
		readers  = 4
	)
	s := NewStore[int](parts)
	var wg sync.WaitGroup

	for p := 0; p < parts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for v := 0; v < versions; v++ {
				at := simtime.Duration(v) * simtime.Millisecond
				if err := s.Publish(p, v, at, p*1000+v); err != nil {
					t.Errorf("publish p%d v%d: %v", p, v, err)
					return
				}
			}
		}(p)
	}

	// Blocking readers: wait for the final version of every partition.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for p := 0; p < parts; p++ {
				snap, ok := s.WaitVersion(p, versions-1)
				if !ok || snap.Data != p*1000+versions-1 {
					t.Errorf("WaitVersion(p%d) data %d ok=%v", p, snap.Data, ok)
				}
			}
		}(r)
	}

	// Polling readers: versions must be consistent with their payloads
	// and monotone per partition.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := make([]int, parts)
			for i := range last {
				last[i] = -1
			}
			for i := 0; i < 2000; i++ {
				p := i % parts
				if snap, ok := s.Read(p); ok {
					if snap.Data != p*1000+snap.Version {
						t.Errorf("torn read: p%d v%d data %d", p, snap.Version, snap.Data)
					}
					if snap.Version < last[p] {
						t.Errorf("version went backwards on p%d: %d -> %d", p, last[p], snap.Version)
					}
					last[p] = snap.Version
				}
				if snap, ok := s.ReadAt(p, 50*simtime.Millisecond); ok && snap.Version > 50 {
					t.Errorf("ReadAt returned future version %d", snap.Version)
				}
			}
		}()
	}
	wg.Wait()
}
