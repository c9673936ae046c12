// Command perfbench is the repository benchmark: it drives the simulator
// through its public entry points on three workloads, checks every cell it
// resolves against committed digests, and prints end-to-end metrics (or,
// with --trace 1, per-layer metrics) as one JSON line. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"bwpart/internal/exper"
	"bwpart/internal/obs"
	"bwpart/internal/sim"
)

func main() {
	workload := flag.String("workload", "", "figures, grid_unsaturated or serve_mixed")
	seed := flag.Int64("seed", 1, "workload seed: chooses cells and their order")
	seconds := flag.Int("seconds", 20, "length of the timed phase")
	traceOn := flag.Int("trace", 0, "1 records spans and prints per-layer metrics")
	update := flag.Bool("update-digests", false, "simulate the whole cell universe and rewrite "+digestFile)
	flag.Parse()

	if *update {
		if err := updateDigests(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	dig, err := loadDigests(digestFile, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r := &run{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second, dig: dig}
	if *traceOn == 1 {
		r.tr = newTracer()
	}
	r.probe = newProber()
	r.probe.run(hostProbe)
	switch *workload {
	case "figures":
		err = runFigures(r)
	case "grid_unsaturated":
		err = runGrid(r)
	case "serve_mixed":
		err = runServe(r)
	default:
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r.probe.run(hostProbe)
	if err := r.report(os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// hostProbe is how long the host probe runs before and after the workload,
// outside every timed phase.
const hostProbe = 250 * time.Millisecond

// quickConfig is the fixed simulation configuration of every workload:
// exper.Quick with one simulation at a time, leaving the second vCPU of a
// small host to the garbage collector and the harness.
func quickConfig(scale float64) exper.Config {
	cfg := exper.Quick()
	cfg.Parallelism = 1
	cfg.Sim.DRAM = cfg.Sim.DRAM.ScaleBandwidth(scale)
	return cfg
}

// run accumulates one benchmark run.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	tr       *tracer
	dig      *digests

	setups []float64     // seconds per set-up
	timed  time.Duration // wall time of the timed phase
	cells  int64         // cells resolved in the timed phase
	fresh  simTotals     // freshly simulated cells of the timed phase
	fixed  simTotals     // the workload's fixed cell set (same every run of a seed)
	obs    obsTotals     // program counters over the timed phase (plus set-up)
	memA   runtime.MemStats
	memB   runtime.MemStats
	heapMB float64 // peak retained heap, see noteHeap

	forcedGCs     uint32 // collections noteHeap ran inside the memA..memB window
	forcedPauseNs uint64
	probe         *prober // host speed, sampled before, between units of, and after the work
	miss          samples // freshly simulated cells
	hit           samples // serve: repeat reads of on-disk cells
	disk          samples // serve: first touch of an on-disk cell
	errPct        float64 // model error, percent

	attempted, failed int64
	failures          []string

	// serve_mixed only
	serveNew   []float64
	handlerHit samples
	handlerMis samples
	transport  samples
	scrape     samples
	queueDepth samples
	rejected   int64

	fixedQueue obs.QueueStats // controller queue depth over the fixed cell set
}

// missTarget is the fewest fresh cells a run times: miss_p90_ms needs 100
// to leave ten beyond it. One figure pass simulates exactly 100.
const missTarget = 100

// more reports whether the timed phase goes on: for r.seconds, and beyond
// them (up to four times as long) until the miss percentiles have their
// samples.
func (r *run) more() bool {
	if r.timed >= 4*r.seconds {
		return false
	}
	return r.timed < r.seconds || r.miss.n() < missTarget
}

func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// simTotals sums the simulated statistics of a set of cells.
type simTotals struct {
	cells         int
	instructions  int64
	accesses      int64
	interference  int64
	ipc, l2, apps float64
	bus, epb      float64
}

func (t *simTotals) add(res sim.Result) {
	t.cells++
	for _, a := range res.Apps {
		t.instructions += a.Instructions
		t.accesses += a.OffChipAccesses
		t.interference += a.InterferenceCycles
		t.ipc += a.IPC
		t.l2 += a.L2MissRate
		t.apps++
	}
	t.bus += res.BusUtilization
	t.epb += res.EnergyPerBitPJ
}

// obsTotals sums obs.Collector snapshots (or their differences).
type obsTotals struct {
	stages                         map[string]obs.StageStat
	hits, misses, coalesced, forks int64
	evictions, prepEvictions       int64
	ckptHits, ckptErrors, rejected int64
}

// add folds sign*snap into t (sign -1 subtracts a baseline).
func (t *obsTotals) add(s obs.Snapshot, sign int64) {
	if t.stages == nil {
		t.stages = make(map[string]obs.StageStat)
	}
	for _, st := range s.Stages {
		cur := t.stages[st.Name]
		cur.Count += sign * st.Count
		cur.Seconds += float64(sign) * st.Seconds
		t.stages[st.Name] = cur
	}
	t.hits += sign * s.Cache.Hits
	t.misses += sign * s.Cache.Misses
	t.coalesced += sign * s.Cache.Coalesced
	t.forks += sign * s.Cache.WarmForks
	t.evictions += sign * s.Cache.Evictions
	t.prepEvictions += sign * s.Cache.PreparedEvictions
	t.ckptHits += sign * s.Cache.CheckpointHits
	t.ckptErrors += sign * s.Failures.CheckpointErrors
	t.rejected += sign * s.Admission.Rejected
}

// noteHeap runs a full collection and raises r.heapMB to the live heap it
// leaves: the memory the program retains between units of work. Unlike a
// sampled peak, it does not depend on when collections happen to run. It
// runs outside the timed phase. The probe's arrays are not the program's.
// Its collections are left out of the runtime.gc_* metrics.
func (r *run) noteHeap() {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	runtime.GC()
	runtime.ReadMemStats(&b)
	r.forcedGCs += b.NumGC - a.NumGC
	r.forcedPauseNs += b.PauseTotalNs - a.PauseTotalNs
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	r.heapMB = max(r.heapMB, float64(s[0].Value.Uint64()-probeBytes)/(1<<20))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type line struct {
	name string
	m    metric
	n    int // samples behind a percentile; 0 when not a percentile
}

// report prints a human-readable table to human and the result JSON as the
// last line of out.
func (r *run) report(out, human *os.File) error {
	e2e, layers, err := r.metrics()
	if err != nil {
		return err
	}
	shown := e2e
	if r.tr != nil {
		shown = layers
		if err := r.tr.write(fmt.Sprintf(".bench_build/traces/%s-seed%d.json", r.workload, r.seed)); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	fmt.Fprintf(human, "perfbench %s seed %d: timed %.2fs, %d attempted, %d failed\n",
		r.workload, r.seed, r.timed.Seconds(), r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintln(human, "  failure:", f)
	}
	for _, l := range append(append([]line(nil), e2e...), layers...) {
		n := ""
		if l.n > 0 {
			n = fmt.Sprintf("  (n=%d)", l.n)
		}
		fmt.Fprintf(human, "  %-32s %14.6g %s%s\n", l.name, l.m.Value, l.m.Unit, n)
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]metric{}}
	for _, l := range shown {
		if math.IsNaN(l.m.Value) || math.IsInf(l.m.Value, 0) {
			return fmt.Errorf("metric %s is %v", l.name, l.m.Value)
		}
		res.Metrics[l.name] = l.m
	}
	data, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(data))
	return err
}

// metrics computes both metric sets. A percentile without enough samples
// beyond it is an error: the run was too short to report it.
func (r *run) metrics() (e2e, layers []line, err error) {
	pct := func(name string, s *samples, q float64) line {
		v, ok := s.pct(q)
		if !ok && err == nil {
			err = fmt.Errorf("%s: %d samples leave fewer than %d beyond the percentile", name, s.n(), minBeyond)
		}
		return line{name, metric{v, "ms"}, s.n()}
	}
	secs := r.timed.Seconds()
	raw := []line{
		{"setup_s", metric{median(r.setups), "s"}, 0},
		{"cells_per_s", metric{float64(r.cells) / secs, "1/s"}, 0},
		{"sim_mips", metric{float64(r.fresh.instructions) / secs / 1e6, "MIPS"}, 0},
		pct("miss_p50_ms", &r.miss, 0.50),
		pct("miss_p90_ms", &r.miss, 0.90),
	}
	// Host-time metrics are scaled to a host that runs the probe at
	// hostRefMops: rates divide by the host's relative speed, times multiply.
	speed := r.probe.mops() / hostRefMops
	for _, l := range raw {
		v := l.m.Value * speed
		if l.m.Unit == "1/s" || l.m.Unit == "MIPS" {
			v = l.m.Value / speed
		}
		e2e = append(e2e, line{l.name, metric{v, l.m.Unit}, l.n})
	}
	e2e = append(e2e,
		line{"heap_peak_mb", metric{r.heapMB, "MiB"}, 0},
		line{"model_err_pct", metric{r.errPct, "%"}, 0},
	)

	st := func(name string) obs.StageStat { return r.obs.stages[name] }
	prof, warm, settle, meas := st(obs.StageProfile), st(obs.StageWarmup), st(obs.StageSettle), st(obs.StageMeasure)
	cycles := float64(meas.Count) * float64(exper.Quick().MeasureCycles)
	requested := float64(r.cells)
	alloc := float64(r.memB.TotalAlloc-r.memA.TotalAlloc) / (1 << 20)
	var setupTotal float64
	for _, s := range r.setups {
		setupTotal += s
	}
	f := r.fixed
	mean := func(sum, n float64) float64 {
		if n == 0 {
			return 0
		}
		return sum / n
	}
	layers = []line{
		{"sim.profile_s", metric{prof.Seconds, "s"}, 0},
		{"sim.profile_count", metric{float64(prof.Count), "count"}, 0},
		{"sim.warmup_s", metric{warm.Seconds, "s"}, 0},
		{"sim.warmup_count", metric{float64(warm.Count), "count"}, 0},
		{"sim.settle_s", metric{settle.Seconds, "s"}, 0},
		{"sim.measure_s", metric{meas.Seconds, "s"}, 0},
		{"sim.cycles", metric{cycles, "cycles"}, 0},
		{"sim.host_ns_per_cycle", metric{mean(meas.Seconds*1e9, cycles), "ns"}, 0},
		{"sim.host_ns_per_instr", metric{mean(meas.Seconds*1e9, float64(r.fresh.instructions)), "ns"}, 0},
		{"exper.cells_requested", metric{requested, "count"}, 0},
		{"exper.cell_hits", metric{float64(r.obs.hits), "count"}, 0},
		{"exper.cell_misses", metric{float64(r.obs.misses), "count"}, 0},
		{"exper.cell_coalesced", metric{float64(r.obs.coalesced), "count"}, 0},
		{"exper.hit_ratio", metric{mean(float64(r.obs.hits+r.obs.coalesced+r.obs.ckptHits), requested), "ratio"}, 0},
		{"exper.warm_forks", metric{float64(r.obs.forks), "count"}, 0},
		{"exper.cache_evictions", metric{float64(r.obs.evictions), "count"}, 0},
		{"exper.prepared_evictions", metric{float64(r.obs.prepEvictions), "count"}, 0},
		{"exper.checkpoint_hits", metric{float64(r.obs.ckptHits), "count"}, 0},
		{"exper.checkpoint_errors", metric{float64(r.obs.ckptErrors), "count"}, 0},
		{"exper.alloc_mb_per_cell", metric{mean(alloc, requested), "MiB"}, 0},
		{"runtime.gc_cycles", metric{float64(r.memB.NumGC - r.memA.NumGC - r.forcedGCs), "count"}, 0},
		{"runtime.gc_pause_ms", metric{float64(r.memB.PauseTotalNs-r.memA.PauseTotalNs-r.forcedPauseNs) / 1e6, "ms"}, 0},
		{"cpu.instructions", metric{float64(f.instructions), "count"}, 0},
		{"cpu.ipc_mean", metric{mean(f.ipc, f.apps), "IPC"}, 0},
		{"cache.l2_miss_rate_mean", metric{mean(f.l2, f.apps), "ratio"}, 0},
		{"memctrl.accesses", metric{float64(f.accesses), "count"}, 0},
		{"memctrl.interference_cycles", metric{float64(f.interference), "cycles"}, 0},
		{"memctrl.queue_depth_mean", metric{r.fixedQueue.Mean, "requests"}, 0},
		{"dram.bus_util_mean", metric{mean(f.bus, float64(f.cells)), "ratio"}, 0},
		{"dram.energy_pj_per_bit_mean", metric{mean(f.epb, float64(f.cells)), "pJ/bit"}, 0},
		{"host.ref_mops", metric{r.probe.mops(), "Mops"}, 0},
	}
	for _, l := range raw {
		layers = append(layers, line{"raw." + l.name, l.m, l.n})
	}
	// Every workload reports the same per-layer set; the serve layer reads 0
	// where no daemon runs, and its handler split exists only when traced.
	served := r.workload == "serve_mixed"
	tracedServe := served && r.tr != nil
	sp := func(name string, s *samples, q float64, on bool) line {
		if !on {
			return line{name, metric{0, "ms"}, 0}
		}
		return pct(name, s, q)
	}
	layers = append(layers,
		line{"serve.new_s", metric{median(r.serveNew), "s"}, 0},
		sp("serve.hit_p50_ms", &r.hit, 0.50, served),
		sp("serve.hit_p99_ms", &r.hit, 0.99, served),
		sp("serve.disk_hit_p50_ms", &r.disk, 0.50, served),
		sp("serve.handler_hit_p50_ms", &r.handlerHit, 0.50, tracedServe),
		sp("serve.handler_miss_p50_ms", &r.handlerMis, 0.50, tracedServe),
		sp("serve.transport_p50_ms", &r.transport, 0.50, tracedServe),
		sp("serve.metrics_scrape_p50_ms", &r.scrape, 0.50, served),
		line{"serve.queue_depth_mean", metric{mean(sum(r.queueDepth.xs), float64(r.queueDepth.n())), "jobs"}, r.queueDepth.n()},
		line{"serve.queue_depth_max", metric{maxOf(r.queueDepth.xs), "jobs"}, r.queueDepth.n()},
		line{"serve.rejected", metric{float64(r.rejected), "count"}, 0},
	)
	if r.tr != nil {
		spans := r.tr.all()
		self := selfTimes(spans)
		simS := prof.Seconds + warm.Seconds + settle.Seconds + meas.Seconds
		overhead := float64(len(spans)) * spanCost().Seconds()
		layers = append(layers,
			line{"trace.spans", metric{float64(len(spans)), "count"}, 0},
			line{"trace.overhead_pct", metric{100 * overhead / secs, "%"}, 0},
			line{"trace.cells_per_s", metric{requested / secs, "1/s"}, 0},
			line{"trace.sim_stage_share", metric{simS / (secs + setupTotal), "ratio"}, 0},
			line{"trace.self_bench_s", metric{self[layerBench].Seconds(), "s"}, 0},
			line{"trace.self_exper_s", metric{self[layerExper].Seconds(), "s"}, 0},
			line{"trace.self_serve_s", metric{self[layerServe].Seconds(), "s"}, 0},
		)
	}
	return e2e, layers, err
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
