package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/async"
	"repro/internal/trace"
)

// setupRepeats is how many times the traced run sets up its input,
// for the setup.* medians.
const setupRepeats = 3

// tracedRun measures the per-layer metrics on the seed's first input.
// It repeats the untraced loop for half the time, as the base of
// bench.traced_overhead and the source of the process-level counters,
// then runs traced jobs for the other half: spans around every program
// call, the async event recorder on every async job, and a CPU profile
// across all of them. Each metric is the median over its jobs.
func tracedRun(o options, b *bench) (*report, error) {
	w := o.workload
	s := seedsFor(o.seed, 0)
	tr := newTracer()
	var in *inputs
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		var err error
		if in, err = setup(w, s, tr, i); err != nil {
			return nil, err
		}
	}
	if err := prepareReferences(w, s, in, true); err != nil {
		return nil, err
	}
	rec := inputRecord{Seeds: s, Samples: map[string][]float64{
		"setup.generate_s":  tr.durations("generate"),
		"setup.partition_s": tr.durations("partition"),
		"setup.subgraphs_s": tr.durations("subgraphs"),
	}}
	rec.add("partition.cut_frac", float64(in.cut)/float64(in.g.NumEdges()))

	b.use(s, in)
	b.job(nil, nil, 0) // warm-up: checked, not timed
	for deadline := time.Now().Add(o.seconds / 2); len(rec.Samples["wall_s"]) < minJobs || time.Now().Before(deadline); {
		out, cost := b.job(nil, nil, b.attempted)
		if out == nil {
			continue
		}
		rec.add("wall_s", out.wall.Seconds())
		rec.add("sim_s", out.simS())
		rec.add("iters", out.iters())
		rec.add("parallel.cpu_per_wall", cost.cpuS/out.wall.Seconds())
		rec.add("gc.cycles", cost.gcCycles)
		rec.add("gc.pause_s", cost.gcPauseS)
	}

	profPath := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d.cpu.pprof", w.name, o.seed))
	pf, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return nil, err
	}
	var tracedWall []float64
	for deadline := time.Now().Add(o.seconds / 2); len(tracedWall) < minJobs || time.Now().Before(deadline); {
		var recorder *trace.Recorder
		if w.leg == legAsync || w.leg == legCC {
			recorder = trace.NewRecorder(trace.DefaultCapacity)
		}
		out, _ := b.job(recorder, tr, setupRepeats+b.attempted) // run ids after the set-ups
		if out == nil {
			continue
		}
		tracedWall = append(tracedWall, out.wall.Seconds())
		for name, v := range layerValues(w, out, recorder) {
			rec.add(name, v)
		}
	}
	pprof.StopCPUProfile()
	if err := pf.Close(); err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d.spans.json", w.name, o.seed))); err != nil {
		return nil, err
	}
	shares, err := cpuShares(o.goCmd, profPath)
	if err != nil {
		return nil, err
	}
	for name, v := range shares {
		rec.add(name, v)
	}
	rec.add("bench.traced_overhead", median(tracedWall)/median(rec.Samples["wall_s"]))

	rep := &report{catalog: perLayer, values: map[string]float64{}, inputs: []inputRecord{rec}}
	for name, vs := range rec.Samples {
		rep.values[name] = median(vs)
	}
	return rep, nil
}

// layerValues reads one traced job's per-layer counts from the run
// statistics the program returned and from its event recorder. The
// run_s values are the job's span.
func layerValues(w workload, out *jobOut, rec *trace.Recorder) map[string]float64 {
	v := map[string]float64{}
	wall := out.wall.Seconds()
	perUnit := func(n float64) float64 {
		if n == 0 {
			return 0
		}
		return wall * 1e9 / n
	}
	if st := out.core; st != nil {
		var records, bytes, lits float64
		var overhead, mapw, shuffle, reduce float64
		for _, it := range st.PerIteration {
			records += float64(it.ShuffleRecords)
			bytes += float64(it.ShuffleBytes)
			lits += float64(it.LocalIterations)
			overhead += it.Phases.Overhead.Seconds()
			mapw += it.Phases.MapWave.Seconds()
			shuffle += it.Phases.Shuffle.Seconds()
			reduce += it.Phases.Reduce.Seconds()
		}
		if w.leg == legGeneral {
			v["mapreduce.run_s"] = wall
			v["mapreduce.jobs"] = float64(st.GlobalIterations)
			v["mapreduce.shuffle_records"] = records
			v["mapreduce.shuffle_mb"] = bytes / 1e6
			v["mapreduce.ns_per_record"] = perUnit(records)
			v["mapreduce.sim_overhead_s"] = overhead
			v["mapreduce.sim_map_s"] = mapw
			v["mapreduce.sim_shuffle_s"] = shuffle
			v["mapreduce.sim_reduce_s"] = reduce
		} else {
			v["core.run_s"] = wall
			v["core.local_iters"] = lits
			v["core.ns_per_local_iter"] = perUnit(lits)
			v["core.shuffle_records"] = records
			v["core.sim_map_s"] = mapw
			v["core.sim_shuffle_s"] = shuffle
		}
		return v
	}
	st := out.async
	v["async.run_s"] = wall
	v["async.steps"] = float64(st.Steps)
	v["async.publishes"] = float64(st.Publishes)
	v["async.pushed_mb"] = float64(st.PushedBytes) / 1e6
	v["async.ns_per_step"] = perUnit(float64(st.Steps))
	v["async.gate_waits"] = float64(st.GateWaits)
	v["async.gate_wait_sim_s"] = st.GateWaitTime.Seconds()
	v["async.max_lead"] = float64(st.MaxLead)
	v["parallel.speculated_frac"] = float64(st.Speculated) / float64(st.Steps)
	v["parallel.spec_depth"] = float64(st.SpecDepth)

	events := rec.Events()
	v["trace.events"] = float64(len(events))
	v["trace.dropped"] = float64(rec.Dropped())
	var dispatched, invalidated float64
	for _, e := range events {
		switch e.Kind {
		case trace.KindSpecDispatch:
			dispatched++
		case trace.KindSpecInvalidate:
			invalidated++
		}
	}
	if dispatched > 0 {
		v["parallel.invalidated_frac"] = invalidated / dispatched
	}
	var compute, gate, stall float64
	for _, p := range trace.NewProfile(events, rec.Dropped()).Parts {
		compute += p.Compute.Seconds()
		gate += p.GateWait.Seconds()
		stall += p.Stall.Seconds()
	}
	if w.exec == async.Live { // the live executor's trace is in wall time
		v["live.compute_s"] = st.LiveComputeTime.Seconds()
		v["live.overlap"] = st.LiveComputeTime.Seconds() / wall
		v["live.steals"] = float64(st.LiveSteals)
		v["live.steals_per_step"] = float64(st.LiveSteals) / float64(st.Steps)
		v["live.gate_wait_s"] = gate
		v["live.stall_s"] = stall
		v["live.steps"] = float64(st.Steps)
	} else {
		v["sim.compute_s"] = compute
		v["sim.gate_wait_s"] = gate
		v["sim.stall_s"] = stall
	}
	return v
}
