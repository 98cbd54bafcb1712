package async

// The one staleness-gate and visibility rule all three executors apply
// (see the package doc): the per-partition read state every executor
// keeps, the run state under it, and every decision over the two. Time
// is a parameter: the core passes a worker's virtual clock, the live
// executor the elapsed wall time. The parallel executor's speculation
// admission (gateCertain) is deliberately a separate, stricter rule: it
// must hold without the settled exemption, which can still flip before
// the canonical gate runs.

import (
	"fmt"

	"repro/internal/adapt"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// partView is one partition's read state: what it reads, what it has
// read, and how far it has published. The core's workerState and the
// live executor's livePart embed it; the shared rule reads and writes
// nothing else of a partition.
type partView struct {
	neighbors []int
	readers   []int // partitions that read this one (reverse-dependency index)
	consumed  []int // last version consumed, parallel to neighbors
	// cursors caches, per neighbor, the history index of the last
	// snapshot this partition read (Store.ReadAtFrom). A partition's read
	// times only advance, so the cached cursor turns every visibility
	// lookup into an O(1) amortized forward scan instead of a binary
	// search.
	cursors   []int
	version   int // publication counter; version 0 is the initial state
	steps     int
	quiescent bool // last outcome's report
	idle      bool // quiescent with no unseen input
	forced    bool // stopped by MaxSteps
	// gateWaiters lists partitions blocked until this one publishes a
	// version (or settles).
	gateWaiters []int
}

// settled reports whether the partition is idle or force-stopped.
// Settled neighbors impose no gate, and reading them counts toward no
// staleness lead: their newest version is their final state.
func (v *partView) settled() bool { return v.idle || v.forced }

// engine is the run state every executor shares: the workload, the
// store, the partition views, the staleness controller, the run's
// stats, and the time-series sampler. Its methods run on the core's
// scheduling goroutine, or under the live executor's engine mutex.
type engine[D any] struct {
	c        *cluster.Cluster
	cfg      *cluster.Config
	w        Workload[D]
	opt      Options
	maxSteps int
	store    *Store[D]
	views    []*partView
	// inbuf[p] is partition p's reusable snapshot buffer, allocated once
	// at setup so the step path is allocation free. Step implementations
	// must not retain it past the call.
	inbuf    [][]Snapshot[D]
	ctrl     *adapt.Controller
	needLag  bool // the policy wants the per-step publish-lag scan
	rec      *trace.Recorder
	stats    *RunStats
	totalOps int64

	// Time-series sampler (Options.Series; nil = sampling off). prog is
	// the workload's Progressive view (nil when it has none) and resid
	// the per-partition residual cache, refreshed at each completed step
	// — the sampler must not call into workload state that a speculated
	// or concurrent Step may be mutating. lastSample carries the previous
	// sample's cumulative counters for the delta fields.
	series      *metrics.Series
	prog        Progressive
	resid       []float64
	sampleEvery simtime.Duration
	sampleTick  int64
	lastSample  metrics.Sample
}

// setup validates the workload and builds the shared run state: one
// view per partition (neighbors checked, nothing consumed yet, the
// reader index), the input buffers, the staleness controller, version 0
// of every partition published visible at time zero (the job input
// already resides on the DFS), and the residual cache when a series is
// attached. It returns each partition's input size, which the
// virtual-time core prices as the worker's startup read.
//
//async:sched-only
func (e *engine[D]) setup(c *cluster.Cluster, w Workload[D], opt Options) ([]int64, error) {
	n := w.Parts()
	if n <= 0 {
		return nil, fmt.Errorf("async: workload has %d partitions", n)
	}
	e.c, e.cfg, e.w, e.opt = c, c.Config(), w, opt
	e.maxSteps = opt.MaxSteps
	if e.maxSteps <= 0 {
		e.maxSteps = DefaultMaxSteps
	}
	e.store = NewStore[D](n)
	e.views = make([]*partView, n)
	e.inbuf = make([][]Snapshot[D], n)
	e.stats = &RunStats{Converged: true}
	e.rec = opt.Trace
	for p := range e.views {
		nbrs := w.Neighbors(p)
		for _, q := range nbrs {
			if q < 0 || q >= n || q == p {
				return nil, fmt.Errorf("async: partition %d has invalid neighbor %d", p, q)
			}
		}
		v := &partView{
			neighbors: nbrs,
			consumed:  make([]int, len(nbrs)),
			cursors:   make([]int, len(nbrs)),
		}
		for j := range v.consumed {
			v.consumed[j] = -1
		}
		e.views[p] = v
		e.inbuf[p] = make([]Snapshot[D], len(nbrs))
	}
	for p, v := range e.views {
		for _, q := range v.neighbors {
			e.views[q].readers = append(e.views[q].readers, p)
		}
	}

	// A nil policy is the static bound: adapt.Fixed is the identity
	// controller, so the default path is bit-identical to a run without
	// one.
	pol := opt.Adapt
	if pol == nil {
		pol = adapt.Fixed(opt.Staleness)
	}
	e.ctrl = adapt.NewController(pol, n)
	e.needLag = e.ctrl.NeedsLag()

	inputBytes := make([]int64, n)
	for p := range e.views {
		data, bytes := w.Init(p)
		if err := e.store.Publish(p, 0, 0, data); err != nil {
			return nil, err
		}
		inputBytes[p] = bytes
	}
	if opt.Series != nil {
		e.series = opt.Series
		e.sampleEvery = opt.Series.Interval()
		if pw, ok := w.(Progressive); ok {
			e.prog = pw
			e.resid = make([]float64, n)
			for p := range e.resid {
				e.resid[p] = pw.Residual(p)
			}
		}
	}
	return inputBytes, nil
}

// gateCheck evaluates partition view v's staleness bound at time t.
// wait=false means the step may run. Otherwise either q >= 0 (the
// needed version of q does not exist yet; block until q publishes or
// settles) or q = -1 and wakeAt holds the time the needed version
// becomes visible. nb is the neighbor the gate parked on in either case
// (equal to q when q >= 0) — the attribution the trace layer records.
// Settled neighbors impose no gate. Reads go through the per-neighbor
// cursors: gate reads and input reads of one partition happen at the
// same non-decreasing time, so they share the cursor cache.
//
//async:sched-only
func gateCheck[D any](store *Store[D], views []*partView, v *partView, t simtime.Duration, bound int) (q, nb int, wakeAt simtime.Duration, wait bool) {
	need := v.version - bound
	if need <= 0 {
		return -1, -1, 0, false
	}
	for j, nb := range v.neighbors {
		if views[nb].settled() {
			continue
		}
		snap, idx, ok := store.ReadAtFrom(nb, t, v.cursors[j])
		if ok {
			v.cursors[j] = idx
			if snap.Version >= need {
				continue
			}
		}
		if store.Latest(nb) >= need {
			// Published but not yet visible: the publication time is in
			// t's future; wait exactly until then. The version exists, so
			// this WaitVersion never blocks or fails.
			snap, _ := store.WaitVersion(nb, need)
			return -1, nb, snap.At, true
		}
		return nb, nb, 0, true
	}
	return -1, -1, 0, false
}

// firstUnseen reports whether any neighbor has published a version newer
// than what v last consumed, and the earliest time such a version
// becomes visible.
//
//async:sched-only
func firstUnseen[D any](store *Store[D], v *partView) (at simtime.Duration, unseen bool) {
	for j, q := range v.neighbors {
		if store.Latest(q) > v.consumed[j] {
			// Latest > consumed, so the version exists and this never
			// blocks or fails.
			snap, _ := store.WaitVersion(q, v.consumed[j]+1)
			if !unseen || snap.At < at {
				at = snap.At
				unseen = true
			}
		}
	}
	return at, unseen
}

// consumeInput performs the canonical read of partition p's j-th
// neighbor at time t: it advances the read cursor, records the consumed
// version, and accounts the staleness lead against active neighbors.
//
//async:sched-only
func (e *engine[D]) consumeInput(p, j int, t simtime.Duration) (Snapshot[D], error) {
	v := e.views[p]
	q := v.neighbors[j]
	snap, idx, ok := e.store.ReadAtFrom(q, t, v.cursors[j])
	if !ok {
		return snap, fmt.Errorf("async: partition %d invisible to %d at %v", q, p, t)
	}
	v.cursors[j] = idx
	v.consumed[j] = snap.Version
	if !e.views[q].settled() {
		if lead := v.version - snap.Version; lead > e.stats.MaxLead {
			e.stats.MaxLead = lead
		}
	}
	return snap, nil
}

// readInputs reads the snapshots visible at time t into p's reusable
// input buffer through consumeInput.
//
//async:sched-only
func (e *engine[D]) readInputs(p int, t simtime.Duration) ([]Snapshot[D], error) {
	buf := e.inbuf[p]
	for j := range buf {
		snap, err := e.consumeInput(p, j, t)
		if err != nil {
			return nil, err
		}
		buf[j] = snap
	}
	return buf, nil
}

// stepDone feeds p's completed step to the staleness controller and
// reports whether the bound changed. The publish-lag scan — the largest
// number of published-but-unconsumed versions across the partitions p
// reads, the drift policy's signal — runs only for policies that want
// it, so the fixed and aimd paths pay no per-step neighbor loop.
//
//async:sched-only
func (e *engine[D]) stepDone(p int, published bool) bool {
	lag := 0
	if e.needLag {
		v := e.views[p]
		for j, q := range v.neighbors {
			if l := e.store.Latest(q) - v.consumed[j]; l > lag {
				lag = l
			}
		}
	}
	return e.ctrl.StepDone(p, published, lag)
}

// recordSample completes smp — the caller sets Time, plus Wall and the
// pool gauges under live — from the run's counters, consumed versions,
// store heads, controller bounds and residual cache, and appends it to
// the series. Ticks number setup 0, interior 1..N, final N+1. Cursors
// and in-flight step results are deliberately not sampled: under the
// parallel executor they advance in wall-clock order and would differ
// from DES.
//
//async:sched-only
func (e *engine[D]) recordSample(smp metrics.Sample) {
	smp.Tick = e.sampleTick
	e.sampleTick++
	smp.Residual = -1
	if e.prog != nil {
		smp.Residual = 0
		for _, r := range e.resid {
			if r > smp.Residual {
				smp.Residual = r
			}
			smp.ResidualSum += r
		}
	}
	smp.Steps = e.stats.Steps
	smp.DeltaSteps = smp.Steps - e.lastSample.Steps
	smp.Publishes = e.stats.Publishes
	smp.DeltaPublishes = smp.Publishes - e.lastSample.Publishes
	smp.GateWait = e.stats.GateWaitTime
	smp.DeltaGateWait = smp.GateWait - e.lastSample.GateWait
	boundSum := 0
	for p, v := range e.views {
		smp.StoreVersions += int64(e.store.Latest(p))
		b := e.ctrl.Signal(p).Bound
		if p == 0 || b < smp.BoundMin {
			smp.BoundMin = b
		}
		if p == 0 || b > smp.BoundMax {
			smp.BoundMax = b
		}
		boundSum += b
		for j, q := range v.neighbors {
			lag := e.store.Latest(q) - v.consumed[j]
			if lag < 0 {
				lag = 0
			}
			if lag > smp.LagMax {
				smp.LagMax = lag
			}
			smp.LagHist[metrics.LagBucket(lag)]++
		}
	}
	smp.BoundMean = float64(boundSum) / float64(len(e.views))
	e.series.Record(smp)
	e.stats.SeriesSamples++
	e.lastSample = smp
}

// finish seals every partition — no partition publishes again, so any
// straggling external WaitVersion caller wakes instead of deadlocking —
// completes the stats from the views and the controller, folds them
// into the cluster's metrics, and advances the cluster clock by the
// run's duration d.
//
//async:sched-only
func (e *engine[D]) finish(d simtime.Duration) *RunStats {
	stats := e.stats
	stats.PerWorkerSteps = make([]int, len(e.views))
	for p, v := range e.views {
		e.store.Seal(p)
		stats.PerWorkerSteps[p] = v.steps
		if v.forced || !v.quiescent {
			stats.Converged = false
		}
	}
	stats.Duration = d
	stats.MeanSteps = float64(stats.Steps) / float64(len(e.views))
	stats.AdaptRaises = e.ctrl.Raises()
	stats.AdaptCuts = e.ctrl.Cuts()
	stats.StalenessMean = e.ctrl.StalenessMean()
	stats.StalenessMax = e.ctrl.StalenessMax()

	e.c.Account(func(m *cluster.Metrics) {
		m.AsyncSteps += stats.Steps
		m.AsyncPublishes += stats.Publishes
		m.AsyncPushedBytes += stats.PushedBytes
		m.AsyncGateWaits += stats.GateWaits
		m.AsyncCrashes += stats.Crashes
		m.AsyncRecoveries += stats.Recoveries
		m.AsyncCheckpoints += stats.Checkpoints
		m.AsyncAdaptRaises += stats.AdaptRaises
		m.AsyncAdaptCuts += stats.AdaptCuts
		m.AsyncLiveSteals += stats.LiveSteals
		m.ComputeOps += e.totalOps
	})
	e.c.Clock().Advance(d)
	return stats
}
