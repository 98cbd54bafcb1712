package core

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/mapreduce"
	"repro/internal/workpool"
)

// lmapPool is the process-wide thread pool backing every threaded lmap
// phase, shared with nothing else: work-stealing keeps uneven chunks
// from idling workers, and one fixed pool bounds the process at
// GOMAXPROCS lmap threads no matter how many gmap tasks run
// concurrently, instead of spawning Threads goroutines per task per
// local iteration. Built lazily on the first threaded phase.
var lmapPool = sync.OnceValue(func() *workpool.Pool[func()] {
	return workpool.New(runtime.GOMAXPROCS(0), func(_ int, fn func()) { fn() })
})

// LocalContext is the emission interface available to lmap and lreduce
// inside one gmap task. It owns the paper's per-task hashtable: lmap
// output accumulates in an intermediate buffer via EmitLocalIntermediate;
// lreduce folds each locally-grouped key and stores results via
// EmitLocal; at the end of local iterations the hashtable contents become
// the gmap task's global emission.
//
// A LocalContext is confined to one gmap task. During a threaded lmap
// phase each worker writes to its own shard, merged deterministically at
// the local synchronization barrier, so user code never needs locks.
type LocalContext[K comparable, V any] struct {
	task *mapreduce.TaskContext[K, V]

	// Intermediate buffer (EmitLocalIntermediate), grouped lazily.
	// Every key ever emitted gets a stable bucket (its bucketIdx slot)
	// whose value slice persists across local iterations:
	// clearIntermediate truncates used buckets to length 0 but keeps
	// their capacity, so steady-state iterations append into
	// already-sized backing arrays. interIdx lists this iteration's
	// buckets in first-emitted order.
	bucketIdx mapreduce.KeyIndex[K]
	buckets   [][]V
	interIdx  []int32

	// shards caches the per-worker lmap contexts for a threaded lmap
	// phase so their buckets survive across local iterations too.
	shards []*LocalContext[K, V]

	// state is the paper's hashtable of local results (EmitLocal). A
	// threaded lmap phase's shards point at their parent's, which is
	// read-only while lmap runs.
	state *hashtable[K, V]

	// localIter is the completed local iteration count.
	localIter int
	ops       int64

	// lmapShard marks a per-worker shard context used during a threaded
	// lmap phase; EmitLocal on a shard is a bug (the hashtable is shared
	// read-only across workers) and panics.
	lmapShard bool
}

// hashtable holds EmitLocal's entries: keys in first-emitted order in
// idx, vals[i] the current value of key idx.Keys()[i].
type hashtable[K comparable, V any] struct {
	idx  mapreduce.KeyIndex[K]
	vals []V
}

func newLocalContext[K comparable, V any](tc *mapreduce.TaskContext[K, V]) *LocalContext[K, V] {
	return &LocalContext[K, V]{task: tc, state: &hashtable[K, V]{}}
}

// EmitLocalIntermediate buffers one record for the next local reduce,
// the paper's EmitLocalIntermediate().
func (lc *LocalContext[K, V]) EmitLocalIntermediate(key K, value V) {
	b := lc.bucket(key)
	lc.buckets[b] = append(lc.buckets[b], value)
}

// bucket returns key's intermediate bucket, recording it as used this
// iteration if it is still empty.
func (lc *LocalContext[K, V]) bucket(key K) int32 {
	b, added := lc.bucketIdx.Slot(key)
	if added {
		lc.buckets = append(lc.buckets, nil)
	}
	if len(lc.buckets[b]) == 0 {
		lc.interIdx = append(lc.interIdx, b)
	}
	return b
}

// EmitLocal stores one record into the local hashtable, the paper's
// EmitLocal(). Re-emitting a key overwrites its value; the key keeps its
// original position in the deterministic output order.
func (lc *LocalContext[K, V]) EmitLocal(key K, value V) {
	if lc.lmapShard {
		panic("core: EmitLocal called from lmap; hashtable writes belong to lreduce")
	}
	st := lc.state
	if s, added := st.idx.Slot(key); added {
		st.vals = append(st.vals, value)
	} else {
		st.vals[s] = value
	}
}

// Value reads the current hashtable entry for key, allowing lmap in a
// later local iteration to consume earlier lreduce output ("otherwise,
// lmap receives it as input", §IV).
func (lc *LocalContext[K, V]) Value(key K) (V, bool) {
	if s, ok := lc.state.idx.Lookup(key); ok {
		return lc.state.vals[s], true
	}
	var zero V
	return zero, false
}

// State invokes fn for every hashtable entry in deterministic
// (first-emitted) order.
func (lc *LocalContext[K, V]) State(fn func(K, V)) {
	for i, k := range lc.state.idx.Keys() {
		fn(k, lc.state.vals[i])
	}
}

// Len returns the number of entries in the local hashtable.
func (lc *LocalContext[K, V]) Len() int { return len(lc.state.vals) }

// LocalIterations returns the number of completed local iterations.
func (lc *LocalContext[K, V]) LocalIterations() int { return lc.localIter }

// Charge accounts ops primitive operations of local compute.
func (lc *LocalContext[K, V]) Charge(ops int64) { lc.ops += ops }

// resetState clears the hashtable (see
// LocalSpec.ResetStatePerIteration).
func (lc *LocalContext[K, V]) resetState() {
	st := lc.state
	st.idx.Reset()
	clear(st.vals)
	st.vals = st.vals[:0]
}

// clearIntermediate resets the intermediate buffer between local
// iterations, keeping allocated capacity: only this iteration's used
// buckets are truncated, the key→bucket index survives. (For pointer-ish
// V the truncated buckets keep their last values reachable until
// overwritten — acceptable for scratch confined to one gmap task.)
func (lc *LocalContext[K, V]) clearIntermediate() {
	for _, b := range lc.interIdx {
		lc.buckets[b] = lc.buckets[b][:0]
	}
	lc.interIdx = lc.interIdx[:0]
}

// LocalSpec describes the inner (local) MapReduce of one gmap task. P is
// the partition payload type, E the local element type, K/V the key-value
// types shared with the global job.
type LocalSpec[P any, E any, K comparable, V any] struct {
	// Elements lists the lmap input (the paper's xs) for one local
	// iteration. It is re-evaluated every local iteration, so partitions
	// whose active element set shrinks (SSSP frontiers) can return fewer
	// elements as local work drains.
	Elements func(part P) []E

	// LMap processes one element, reading prior local results via
	// lc.Value and emitting via lc.EmitLocalIntermediate. It must not
	// call lc.EmitLocal; writes to the hashtable belong to lreduce.
	LMap func(lc *LocalContext[K, V], part P, elem E)

	// LReduce folds one locally-grouped key, emitting via lc.EmitLocal.
	LReduce func(lc *LocalContext[K, V], part P, key K, values []V)

	// Apply, if non-nil, integrates the local reduce output back into
	// the partition payload after each local iteration (e.g. writing new
	// ranks into a dense per-partition array). Runs at the partial
	// synchronization barrier.
	Apply func(part P, lc *LocalContext[K, V])

	// Converged reports whether local iterations should stop. Checked
	// after every local iteration (post-Apply). Required unless
	// MaxLocalIters > 0.
	Converged func(part P, lc *LocalContext[K, V]) bool

	// MaxLocalIters caps local iterations; 0 means no cap. Setting 1
	// degenerates the eager formulation to the general one (one local
	// sweep per global synchronization) — the ablation benches use this.
	MaxLocalIters int

	// Output emits the gmap task's global records after local
	// convergence. If nil, every hashtable entry is emitted unchanged
	// (the Figure 1 default: "for each value in lreduce-output
	// EmitIntermediate(key, value)").
	Output func(tc *mapreduce.TaskContext[K, V], part P, lc *LocalContext[K, V])

	// Threads sizes the intra-task thread pool for lmap execution
	// (§IV: "local map and local reduce operations can use a thread-pool
	// to extract further parallelism"). 0 or 1 disables threading.
	Threads int

	// ResetStatePerIteration clears the hashtable before each local
	// reduce, so it holds exactly one local iteration's lreduce output.
	// Applications whose lreduce re-emits its full state every iteration
	// (K-Means: every cluster's accumulated members) need this to keep
	// stale entries from earlier iterations out of the global emission;
	// applications whose hashtable monotonically accumulates
	// (PageRank ranks, SSSP distances) leave it false.
	ResetStatePerIteration bool
}

func (s *LocalSpec[P, E, K, V]) validate() error {
	if s.Elements == nil {
		return fmt.Errorf("core: LocalSpec.Elements is required")
	}
	if s.LMap == nil {
		return fmt.Errorf("core: LocalSpec.LMap is required")
	}
	if s.LReduce == nil {
		return fmt.Errorf("core: LocalSpec.LReduce is required")
	}
	if s.Converged == nil && s.MaxLocalIters <= 0 {
		return fmt.Errorf("core: LocalSpec needs Converged or MaxLocalIters to terminate")
	}
	return nil
}

// BuildGMap composes lmap and lreduce into a global map function,
// reproducing the paper's Figure 1. The returned MapFunc runs local
// MapReduce iterations to local convergence — charging one cheap partial
// synchronization per local iteration instead of a global barrier — and
// then emits the hashtable as the task's global output.
//
// BuildGMap panics on an invalid spec; specs are static program
// structure, so this is a programming error, not runtime input.
func BuildGMap[P any, E any, K comparable, V any](spec *LocalSpec[P, E, K, V]) mapreduce.MapFunc[P, K, V] {
	if err := spec.validate(); err != nil {
		panic(err)
	}
	return func(tc *mapreduce.TaskContext[K, V], split mapreduce.Split[P]) {
		lc := newLocalContext(tc)
		part := split.Data
		for {
			elems := spec.Elements(part)
			runLMapPhase(spec, lc, part, elems)
			// Partial synchronization barrier: group lmap output, run
			// lreduce, integrate, count one local sync.
			if spec.ResetStatePerIteration {
				lc.resetState()
			}
			runLReducePhase(spec, lc, part)
			tc.LocalSync()
			lc.localIter++
			if spec.Apply != nil {
				spec.Apply(part, lc)
			}
			if spec.MaxLocalIters > 0 && lc.localIter >= spec.MaxLocalIters {
				break
			}
			if spec.Converged != nil && spec.Converged(part, lc) {
				break
			}
		}
		// Charge accumulated local compute, discounted by the intra-task
		// thread pool (bounded by the cores available to one map slot).
		tc.Charge(discountOps(lc.ops, spec.Threads))
		tc.Counter("core.local_iterations", int64(lc.localIter))
		if spec.Output != nil {
			spec.Output(tc, part, lc)
			return
		}
		lc.State(tc.Emit)
	}
}

// discountOps models the local thread pool's speedup on charged compute.
// The pool cannot exceed the cores available to one map slot; the engine
// reads the bound at pricing time, so here we cap at a conservative 2
// (Table I: 8 EC2 compute units across 4 map slots). Functional
// parallelism is real regardless; this only affects simulated time.
func discountOps(ops int64, threads int) int64 {
	if threads <= 1 {
		return ops
	}
	eff := float64(threads)
	if eff > 2 {
		eff = 2
	}
	return int64(float64(ops) / eff)
}

// runLMapPhase applies LMap to every element, on one goroutine or on
// the shared lmap thread pool with deterministic merge order.
func runLMapPhase[P any, E any, K comparable, V any](spec *LocalSpec[P, E, K, V], lc *LocalContext[K, V], part P, elems []E) {
	lc.clearIntermediate()
	if spec.Threads <= 1 || len(elems) < 2*spec.Threads {
		for _, e := range elems {
			spec.LMap(lc, part, e)
		}
		return
	}
	// Shard elements into contiguous chunks; each chunk runs on the
	// shared pool and emits into a private child context; merge in chunk
	// order for determinism. The hashtable (read-only during lmap) is
	// shared via the parent. Shard contexts are cached on the parent so
	// their buckets, like the parent's, keep capacity across local
	// iterations. Chunk panics are captured and re-raised on the task
	// goroutine so the engine's per-task recovery still catches bad user
	// code (the pool itself must never see a panic).
	n := spec.Threads
	for len(lc.shards) < n {
		lc.shards = append(lc.shards, &LocalContext[K, V]{
			task:      lc.task,
			state:     lc.state, // shared read-only view for Value()
			lmapShard: true,
		})
	}
	shards := lc.shards[:n]
	panics := make([]any, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for w := 0; w < n; w++ {
		lo := w * len(elems) / n
		hi := (w + 1) * len(elems) / n
		chunk := elems[lo:hi]
		sh := shards[w]
		sh.clearIntermediate()
		sh.ops = 0 // merged into the parent at the end of each phase
		lmapPool().Submit(func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[w] = r
				}
			}()
			for _, e := range chunk {
				spec.LMap(sh, part, e)
			}
		})
	}
	wg.Wait()
	for _, r := range panics {
		if r != nil {
			panic(r)
		}
	}
	for _, sh := range shards {
		keys := sh.bucketIdx.Keys()
		for _, sb := range sh.interIdx {
			b := lc.bucket(keys[sb])
			lc.buckets[b] = append(lc.buckets[b], sh.buckets[sb]...)
		}
		lc.ops += sh.ops
	}
}

// runLReducePhase folds every intermediate key group through LReduce in
// deterministic first-emitted order.
func runLReducePhase[P any, E any, K comparable, V any](spec *LocalSpec[P, E, K, V], lc *LocalContext[K, V], part P) {
	keys := lc.bucketIdx.Keys()
	for _, b := range lc.interIdx {
		spec.LReduce(lc, part, keys[b], lc.buckets[b])
	}
}
