package async

// The live executor: real partition compute on a work-stealing pool.
//
// Where DES and the speculative parallel executor *draw* every step's
// cost from the cluster model, the live executor actually runs the
// workload's Step functions on a fixed goroutine pool
// (internal/workpool: per-worker sharded run queues + work stealing)
// and *measures* costs as monotonic wall-clock deltas. The partition
// views, the versioned store, the staleness gate and input read
// (view.go), and the adaptive controllers are the same code the
// virtual-time executors run — they only ever see simtime.Duration
// timestamps, which here hold real elapsed seconds since the run
// started instead of virtual time. What live adds is its wait action:
// parking on a wake heap or a gate-waiter list under its mutex.
//
// One piece of the cluster model is kept, in real time: publish
// visibility. A publication becomes visible at
//
//	elapsed + LiveNetScale × AsyncPushCost(bytes)
//
// so readers observe it only after the modeled network push, enforced
// against the same real clock the run is measured on. That is what the
// paper's thesis is about — synchronous execution serializes on
// communication latency while asynchronous execution overlaps it — and
// it is what makes the lockstep-vs-free-running gap measurable even
// when compute alone saturates the machine. LiveNetScale = 0 turns the
// emulation off (pure compute); the presets ship 1 (full model
// latency).
//
// Unlike DES and the parallel executor, a live run is NOT
// deterministic: step interleaving, measured durations, and adaptive
// decisions depend on real scheduling. DES stays the correctness
// oracle — monotone workloads (CC, SSSP) reach the identical fixed
// point exactly, contractive ones (PageRank, K-Means) within the
// convergence tolerance (asynctest.CheckLiveMatchesDES). The crash
// fault model is virtual-time machinery (deterministic Poisson
// schedules, priced recovery) and is rejected in live mode.
//
// Concurrency design. Every partition is in exactly one state —
// runnable (queued or executing, at most one task in flight), timed
// (parked in a wake heap), blocked (in a neighbor's gate-waiter list),
// or settled (the view's idle or forced flag) — and every transition
// happens under one engine mutex. Each wake path — the timer, a
// reader's idle wake, a waiter release — hands the partition back from
// exactly one of these states, so no partition is ever queued twice.
// Workload compute and store publications run outside the mutex; a
// single timer goroutine (the executor's second sanctioned goroutine
// besides the pool) serves the wake heap. Publications reach
// the store *before* the mutex section that wakes readers, and an
// idling partition re-checks for unseen versions inside the same
// locked section that parks it, so no wakeup can be lost. Wall-clock
// reads and the resulting calls into scheduling-goroutine-only code
// are sanctioned per function via //async:measured (see
// internal/lint): the engine mutex provides the serialization that
// goroutine confinement provides elsewhere.

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/recovery"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/workpool"
)

// livePart is the live executor's per-partition bookkeeping: the
// shared read state plus the wait accounting. Everything is guarded by
// liveScheduler.mu, except version and steps, which only the
// partition's own task writes (partitions are single-flight, and the
// pool hand-off orders successive tasks).
type livePart struct {
	*partView
	// waitStart is the real time a gate wait began (-1 when none);
	// waitMeasured marks the blocked-on-a-laggard case whose duration is
	// only known at release (adapt.Controller.AddWaitTime).
	waitStart    simtime.Duration
	waitMeasured bool
	// lastPubAt clamps publication visibility times to be non-decreasing
	// (the store's invariant) when a fast step outruns the previous
	// publication's modeled network delay.
	lastPubAt simtime.Duration
}

// liveScheduler satisfies Scheduler[D] degenerately: the first Admit
// call runs the whole concurrent execution to quiescence and reports
// the event queue drained, so Drive proceeds straight to Finish. The
// phase methods in between are never invoked. The shared engine state
// (run counters, controller, sampler) is written only under mu and
// folded by Finish after the pool has been closed.
type liveScheduler[D any] struct {
	engine[D]
	netScale float64
	parts    []*livePart
	pool     *workpool.Pool[int]

	start time.Time // monotonic run origin; all timestamps are offsets from it

	mu         sync.Mutex
	settled    int
	timed      simtime.EventHeap
	timerKick  chan struct{}
	quit       chan struct{}
	done       chan struct{}
	doneClosed bool
	runErr     error
	endAt      simtime.Duration

	ran      bool
	stopOnce sync.Once
	timerWG  sync.WaitGroup
}

// newLiveScheduler validates the workload and options and builds the
// engine: version 0 of every partition is published visible at time
// zero, every partition starts runnable, and the pool is sized at
// min(opt.Workers or GOMAXPROCS, partitions). The metrics sampler's
// tick rides the timed-wake heap with the out-of-band ID len(parts) on
// a real-time grid; unlike DES/parallel the live series is NOT
// deterministic (it observes real interleaving).
//
//async:sched-root
func newLiveScheduler[D any](c *cluster.Cluster, w Workload[D], opt Options) (*liveScheduler[D], error) {
	cfg := c.Config()
	if cfg.CrashMTTF > 0 {
		return nil, fmt.Errorf("async: the live executor does not support the crash fault model (CrashMTTF %v); crash schedules and recovery pricing are virtual-time machinery — run DES or parallel", cfg.CrashMTTF)
	}
	if opt.Checkpoint != nil && opt.Checkpoint != recovery.None() {
		return nil, fmt.Errorf("async: the live executor does not support checkpoint policies (%v); run DES or parallel", opt.Checkpoint)
	}
	s := &liveScheduler[D]{
		netScale:  cfg.LiveNetScale,
		timerKick: make(chan struct{}, 1),
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	if _, err := s.setup(c, w, opt); err != nil {
		return nil, err
	}
	n := len(s.views)
	s.parts = make([]*livePart, n)
	for p, v := range s.views {
		s.parts[p] = &livePart{partView: v, waitStart: -1}
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	s.pool = workpool.New(workers, s.runPart)
	if rec := s.rec; rec != nil {
		// Steal attribution: the hook runs on the stealing worker's
		// goroutine before the item does; the wall stamp the recorder
		// applies places the migration on the timeline. No items are
		// queued yet, so the hook is installed race-free.
		s.pool.SetStealHook(func(w, p int) {
			rec.Emit(trace.KindSteal, p, -1, 0, int64(w), 0, 0)
		})
	}
	return s, nil
}

// now returns the real time elapsed since the run started, in the same
// simtime.Duration unit (seconds) every store timestamp and stat uses.
//
//async:measured — the live executor's clock IS the wall clock.
func (s *liveScheduler[D]) now() simtime.Duration {
	return simtime.Duration(time.Since(s.start).Seconds())
}

// pushDelay is the emulated network visibility delay of one
// publication: the cluster model's push cost scaled by LiveNetScale,
// applied in real time. Pure pricing — safe from any pool worker per
// the cluster's concurrency contract.
func (s *liveScheduler[D]) pushDelay(bytes int64) simtime.Duration {
	if s.netScale == 0 {
		return 0
	}
	return simtime.Duration(float64(s.c.AsyncPushCost(bytes)) * s.netScale)
}

// Admit runs the whole live execution on its first call and reports
// the queue drained; see liveScheduler.
//
//async:sched-only
func (s *liveScheduler[D]) Admit() (int, bool) {
	if !s.ran {
		s.ran = true
		s.runLive()
	}
	return -1, false
}

// runLive stamps the run origin, starts the timer goroutine, enqueues
// every partition, and blocks until the run settles or fails, then
// stops the pool so Finish reads a quiescent engine state.
//
//async:measured — stamps the monotonic run origin all measurements are offsets of.
func (s *liveScheduler[D]) runLive() {
	s.start = time.Now()
	s.rec.StartWall()
	if s.series != nil {
		// Setup sample at grid time 0, then the first tick on the wake
		// heap — pushed before the timer goroutine starts, so no kick is
		// needed.
		s.mu.Lock()
		s.sampleLocked(0)
		s.timed.Push(s.sampleEvery, len(s.parts))
		s.mu.Unlock()
	}
	s.timerWG.Add(1)
	//async:pool — the executor's one goroutine besides the workpool: the timed-wake server.
	go s.timerLoop()
	for p := range s.parts {
		s.pool.Submit(p)
	}
	<-s.done
	s.shutdown()
}

// shutdown stops the timer goroutine and the pool. Idempotent; also
// reached via Close for schedulers that were never driven.
func (s *liveScheduler[D]) shutdown() {
	s.stopOnce.Do(func() {
		close(s.quit)
		s.timerWG.Wait()
		s.pool.Close()
	})
}

// Close releases the pool and timer; see Scheduler.
func (s *liveScheduler[D]) Close() { s.shutdown() }

// Gate, Execute, Publish, and Advance are never reached: Admit runs
// the whole live execution and immediately reports the queue drained,
// so Drive skips its phase body entirely.
//
//async:sched-only
func (s *liveScheduler[D]) Gate(p int) bool { return false }

//async:sched-only
func (s *liveScheduler[D]) Execute(p int) (StepOutcome[D], error) {
	return StepOutcome[D]{}, fmt.Errorf("async: executor bug: live Execute(%d) reached; live runs entirely inside Admit", p)
}

//async:sched-only
func (s *liveScheduler[D]) Publish(p int, out StepOutcome[D]) error {
	return fmt.Errorf("async: executor bug: live Publish(%d) reached; live runs entirely inside Admit", p)
}

//async:sched-only
func (s *liveScheduler[D]) Advance(p int, out StepOutcome[D]) {}

// runPart executes one step attempt for partition p on pool worker w:
// settle wait accounting, gate, read inputs (all under the engine
// mutex), run the workload step with the clock running (no locks),
// publish with emulated network visibility, then advance the partition
// state machine. Non-quiescent partitions re-enqueue on the same
// worker's queue so its warm scratch is reused; work stealing migrates
// them only when the worker backs up.
//
//async:measured — measures step compute by wall clock; the engine mutex serializes the sched-only controller calls.
func (s *liveScheduler[D]) runPart(w, p int) {
	lp := s.parts[p]
	s.mu.Lock()
	if s.runErr != nil || lp.forced {
		s.mu.Unlock()
		return
	}
	if lp.waitStart >= 0 {
		waited := s.now() - lp.waitStart
		s.stats.GateWaitTime += waited
		if lp.waitMeasured {
			s.ctrl.AddWaitTime(p, waited)
		}
		s.rec.Emit(trace.KindGateRelease, p, lp.steps, lp.waitStart+waited, -1, 0, 0)
		lp.waitStart = -1
	}
	if bound := s.ctrl.Bound(p); bound >= 0 && s.gateLocked(p, bound) {
		s.mu.Unlock()
		return // parked timed or blocked; a wake re-runs the gate
	}
	t := s.now()
	buf, err := s.readInputs(p, t)
	if err != nil {
		s.failLocked(err)
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()

	s.rec.Emit(trace.KindStepStart, p, lp.steps, t, 0, 0, 0)
	t0 := time.Now()
	out, err := runStep(s.w, p, lp.steps, buf)
	dc := simtime.Duration(time.Since(t0).Seconds())
	if err != nil {
		s.mu.Lock()
		s.failLocked(err)
		s.mu.Unlock()
		return
	}
	lp.steps++
	s.rec.Emit(trace.KindStepEnd, p, lp.steps-1, t+dc, 0, 0, dc)

	if out.Publish {
		pubAt := s.now()
		visAt := pubAt + s.pushDelay(out.Bytes)
		if visAt < lp.lastPubAt {
			visAt = lp.lastPubAt
		}
		lp.lastPubAt = visAt
		lp.version++
		// The publication must be in the store before the locked wake
		// section below: an idling partition's unseen-version check and
		// this wake both run under mu, so whichever orders second sees
		// the other's effect and no wakeup is lost.
		if err := s.store.Publish(p, lp.version, visAt, out.Data); err != nil {
			s.mu.Lock()
			s.failLocked(err)
			s.mu.Unlock()
			return
		}
		s.rec.Emit(trace.KindPublish, p, lp.steps-1, pubAt, int64(lp.version), out.Bytes, visAt-pubAt)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.runErr != nil {
		return
	}
	lp.quiescent = out.Quiescent
	s.stats.Steps++
	s.stats.LiveComputeTime += dc
	s.totalOps += out.Ops
	if s.prog != nil {
		// p's step is complete and single-flight, so the residual read
		// is safe.
		s.resid[p] = s.prog.Residual(p)
	}
	if out.Publish {
		s.stats.Publishes++
		s.stats.PushedBytes += out.Bytes
		for _, r := range lp.readers {
			if rp := s.parts[r]; rp.idle {
				rp.idle = false
				s.settled--
				s.parkOrRunLocked(r, lp.lastPubAt, -1)
			}
		}
		s.releaseWaitersLocked(lp)
	}
	if s.stepDone(p, out.Publish) {
		s.rec.Emit(trace.KindAdaptBound, p, lp.steps, s.now(), int64(s.ctrl.Bound(p)), 0, 0)
	}
	switch {
	case lp.steps >= s.maxSteps:
		s.forceLocked(p)
	case !out.Quiescent:
		s.pool.SubmitLocal(w, p)
	default:
		if at, unseen := firstUnseen(s.store, lp.partView); unseen {
			s.parkOrRunLocked(p, at, w)
		} else {
			s.idleLocked(p)
		}
	}
}

// gateLocked applies the shared staleness gate to p at the current
// real time; the wait action is live's own. A version that exists but
// is not yet visible parks p in the wake heap until its visibility time
// (wait priced at booking); a version that does not exist yet blocks p
// on the laggard neighbor (wait measured at release). Reports whether p
// was parked. Caller holds s.mu.
//
//async:measured — gate bookings run on pool workers; the engine mutex serializes the controller.
func (s *liveScheduler[D]) gateLocked(p, bound int) bool {
	lp := s.parts[p]
	t := s.now()
	q, nb, wakeAt, wait := gateCheck(s.store, s.views, lp.partView, t, bound)
	if !wait {
		return false
	}
	s.stats.GateWaits++
	lp.waitStart = t
	lp.waitMeasured = q >= 0
	s.rec.Emit(trace.KindGateBegin, p, lp.steps, t, int64(nb), int64(lp.version-bound), 0)
	var priced simtime.Duration
	if q < 0 {
		priced = wakeAt - t
	}
	if s.ctrl.GateWait(p, priced) {
		s.rec.Emit(trace.KindAdaptBound, p, lp.steps, t, int64(s.ctrl.Bound(p)), 0, 0)
	}
	if q >= 0 {
		s.parts[q].gateWaiters = append(s.parts[q].gateWaiters, p)
	} else {
		s.parkTimedLocked(p, wakeAt)
	}
	return true
}

// parkOrRunLocked makes p runnable now or parks it in the wake heap
// until at, whichever the clock says. w >= 0 re-enqueues on that
// worker's own queue. Caller holds s.mu.
func (s *liveScheduler[D]) parkOrRunLocked(p int, at simtime.Duration, w int) {
	if at <= s.now() {
		if w >= 0 {
			s.pool.SubmitLocal(w, p)
		} else {
			s.pool.Submit(p)
		}
		return
	}
	s.parkTimedLocked(p, at)
}

// parkTimedLocked parks p in the wake heap and kicks the timer so it
// re-arms if at precedes its current deadline. Caller holds s.mu. The
// wake heap is the DES's sched-only event queue; here it is serialized
// under s.mu instead of a scheduling goroutine, hence the waiver.
//
//async:measured
func (s *liveScheduler[D]) parkTimedLocked(p int, at simtime.Duration) {
	s.timed.Push(at, p)
	select {
	case s.timerKick <- struct{}{}:
	default:
	}
}

// releaseWaitersLocked wakes every partition blocked on lp after it
// published or settled. Premature wakes just re-gate and re-block,
// exactly like the core's releaseGateWaiters; the measured wait is
// settled when the released partition's task actually runs. Waiters
// released by a publication wake at its visibility time. Caller holds
// s.mu.
func (s *liveScheduler[D]) releaseWaitersLocked(lp *livePart) {
	for _, r := range lp.gateWaiters {
		s.parkOrRunLocked(r, lp.lastPubAt, -1)
	}
	lp.gateWaiters = lp.gateWaiters[:0]
}

// idleLocked settles p as idle, releasing its gate waiters (idle
// partitions impose no gate). Caller holds s.mu.
func (s *liveScheduler[D]) idleLocked(p int) {
	lp := s.parts[p]
	lp.idle = true
	s.settled++
	s.releaseWaitersLocked(lp)
	s.checkDoneLocked()
}

// forceLocked settles p at the step cap: the run will report
// Converged=false, the store seals the partition so external
// WaitVersion callers wake, and gate waiters are released (forced
// partitions impose no gate). Caller holds s.mu.
func (s *liveScheduler[D]) forceLocked(p int) {
	lp := s.parts[p]
	lp.forced = true
	s.settled++
	s.store.Seal(p)
	s.releaseWaitersLocked(lp)
	s.checkDoneLocked()
}

// failLocked records the first engine error and unblocks the run; pool
// tasks check runErr and drain without touching state. Caller holds
// s.mu.
func (s *liveScheduler[D]) failLocked(err error) {
	if s.runErr == nil {
		s.runErr = err
	}
	s.closeDoneLocked()
}

// checkDoneLocked ends the run once every partition has settled.
// Caller holds s.mu.
//
//async:measured — stamps the run's measured makespan at quiescence.
func (s *liveScheduler[D]) checkDoneLocked() {
	if s.settled == len(s.parts) {
		s.endAt = s.now()
		s.closeDoneLocked()
	}
}

func (s *liveScheduler[D]) closeDoneLocked() {
	if !s.doneClosed {
		s.doneClosed = true
		close(s.done)
	}
}

// sampleLocked records one time-series sample at grid time at, stamped
// with the measured wall offset and the pool gauges. Caller holds s.mu,
// which guards every engine input the sample reads (Store.Latest and
// the pool gauges are safely concurrent on their own).
//
//async:measured — stamps Sample.Wall; recorded only, never branched on.
func (s *liveScheduler[D]) sampleLocked(at simtime.Duration) {
	s.recordSample(metrics.Sample{Time: at, Wall: float64(s.now()), QueueDepth: s.pool.Queued(), Steals: s.pool.Steals()})
}

// timerLoop serves the wake heap: it sleeps until the earliest parked
// partition's wake time, re-enqueues due partitions, and re-arms. A
// kick on timerKick (a new earliest entry) or quit (shutdown)
// interrupts the sleep.
//
//async:measured — converts heap deadlines to real timer sleeps.
func (s *liveScheduler[D]) timerLoop() {
	defer s.timerWG.Done()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	if !timer.Stop() {
		<-timer.C
	}
	for {
		var sleep time.Duration = -1
		s.mu.Lock()
		for {
			ev, ok := s.timed.Peek()
			if !ok {
				break
			}
			d := ev.At - s.now()
			if d > 0 {
				sleep = time.Duration(float64(d) * float64(time.Second))
				break
			}
			s.timed.Pop()
			if ev.ID >= len(s.parts) {
				// Sampler tick (out-of-band ID): record and re-arm on the
				// grid. The run's end stops the chain; the final boundary
				// sample comes from Finish at endAt.
				if s.runErr == nil && !s.doneClosed && s.series != nil {
					s.stats.SeriesTicks++
					s.sampleLocked(ev.At)
					s.timed.Push(ev.At+s.sampleEvery, len(s.parts))
				}
				continue
			}
			if s.runErr == nil {
				s.pool.Submit(ev.ID)
			}
		}
		s.mu.Unlock()
		if sleep < 0 {
			select {
			case <-s.timerKick:
				continue
			case <-s.quit:
				return
			}
		}
		timer.Reset(sleep)
		select {
		case <-timer.C:
		case <-s.timerKick:
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		case <-s.quit:
			return
		}
	}
}

// Finish folds the run into its stats and the cluster's metrics, and
// advances the cluster clock by the measured makespan — in
// measured-cost mode the simulated clock tracks real elapsed time. The
// pool and timer are stopped, so the engine state is quiescent. See
// Scheduler.
//
//async:sched-only
func (s *liveScheduler[D]) Finish() (*RunStats, error) {
	if !s.ran {
		return nil, fmt.Errorf("async: live Finish without Admit")
	}
	if s.runErr != nil {
		return nil, s.runErr
	}
	if s.settled != len(s.parts) {
		return nil, fmt.Errorf("async: executor bug: live run ended with %d of %d partitions settled", s.settled, len(s.parts))
	}
	if s.series != nil {
		// Final boundary sample at the measured makespan.
		s.mu.Lock()
		s.sampleLocked(s.endAt)
		s.mu.Unlock()
	}
	s.stats.LiveSteals = s.pool.Steals()
	stats := s.finish(s.endAt)
	s.c.Account(func(m *cluster.Metrics) { m.AsyncLiveSteps += stats.Steps })
	return stats, nil
}
