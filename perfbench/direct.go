package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"bwpart/internal/exper"
	"bwpart/internal/obs"
	"bwpart/internal/workload"
)

// setupsPerRun is how many times a direct workload sets up a runner before
// timing; setup_s is their median. The timed phase uses them in order.
const setupsPerRun = 5

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// directRunner is one exper.Runner with a collector of its own, so its
// counters can be read apart from the other runners'.
type directRunner struct {
	r    *exper.Runner
	col  *obs.Collector
	snap *obs.Snapshot // taken when its timed work ended
}

// cellClock turns the runner's CellDone callbacks into per-cell latencies
// while timing is on. With one simulation at a time, the gap between two
// resolved cells is the time the second one took.
type cellClock struct {
	run    *run
	mu     sync.Mutex
	on     bool
	last   time.Time
	paused time.Duration   // host probes during the current unit, not timed
	misses map[string]bool // cells simulated during the current unit
}

func (c *cellClock) hook(scale float64, col *obs.Collector) func(mix, scheme, fp string) {
	var seen int64 // collector misses already attributed
	return func(mix, scheme, _ string) {
		now := time.Now()
		m := col.Snapshot().Cache.Misses
		c.mu.Lock()
		defer c.mu.Unlock()
		fresh := m > seen
		seen = m
		if !c.on {
			return
		}
		c.run.cells++
		if fresh {
			c.run.miss.add(ms(now.Sub(c.last)))
			c.misses[cellKey(scale, mix, scheme)] = true
		}
		c.paused += c.run.probe.run(probeSlice)
		c.last = time.Now()
	}
}

// time runs one unit of work with the clock on and adds it, less the host
// probes run between its cells, to the timed phase.
func (c *cellClock) time(unit func() error) error {
	c.mu.Lock()
	c.on, c.last, c.paused, c.misses = true, time.Now(), 0, make(map[string]bool)
	start := c.last
	c.mu.Unlock()
	err := unit()
	c.mu.Lock()
	c.on = false
	c.run.timed += time.Since(start) - c.paused
	c.mu.Unlock()
	return err
}

// setupRunner builds a runner and profiles every benchmark the workload
// uses: the work before a direct workload can resolve its first cell.
func setupRunner(r *run, clock *cellClock, scale float64, benchmarks []string) (*directRunner, error) {
	root := r.tr.begin(layerBench, "setup", 0, 0)
	defer r.tr.end(root)
	start := time.Now()
	col := obs.NewCollector()
	cfg := quickConfig(scale)
	cfg.Obs = col
	cfg.CellDone = clock.hook(scale, col)
	sp := r.tr.begin(layerExper, "NewRunner", spanID(root), 0)
	runner, err := exper.NewRunner(cfg)
	r.tr.end(sp)
	if err != nil {
		return nil, err
	}
	for _, b := range benchmarks {
		sp := r.tr.begin(layerExper, "Alone", spanID(root), 0)
		_, err := runner.Alone(b)
		r.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("profiling %s: %w", b, err)
		}
	}
	r.setups = append(r.setups, time.Since(start).Seconds())
	return &directRunner{r: runner, col: col}, nil
}

func setupRunners(r *run, clock *cellClock, scale float64, mixes []workload.Mix) ([]*directRunner, error) {
	var out []*directRunner
	for i := 0; i < setupsPerRun; i++ {
		dr, err := setupRunner(r, clock, scale, benchmarksOf(mixes))
		if err != nil {
			return nil, err
		}
		out = append(out, dr)
	}
	return out, nil
}

// benchmarksOf lists the distinct benchmarks of mixes in first-use order.
func benchmarksOf(mixes []workload.Mix) []string {
	seen := make(map[string]bool)
	var out []string
	for _, m := range mixes {
		for _, b := range m.Benchmarks {
			if !seen[b] {
				seen[b] = true
				out = append(out, b)
			}
		}
	}
	return out
}

// collectObs folds every runner's counters into the run: the snapshot taken
// when its timed work ended, or now for a runner that only set up.
func collectObs(r *run, runners []*directRunner) {
	for _, dr := range runners {
		if dr.snap == nil {
			s := dr.col.Snapshot()
			dr.snap = &s
		}
		r.obs.add(*dr.snap, 1)
	}
}

// figureCells are the (mix, scheme) cells Figures 1-3 request, 106 in all,
// of which 100 are distinct (the motivation mix aliases hetero-5).
func figureCells() []cell {
	var out []cell
	m := workload.MotivationMix().Name
	out = append(out, cell{1, m, exper.NoPartitioning})
	for _, s := range exper.Figure1Schemes() {
		out = append(out, cell{1, m, s})
	}
	for _, mix := range workload.AllMixes() {
		for _, s := range allSchemes() {
			out = append(out, cell{1, mix.Name, s})
		}
	}
	for _, mix := range workload.QoSMixes() {
		out = append(out, cell{1, mix.Name, exper.NoPartitioning})
	}
	return out
}

func figureMixes() []workload.Mix {
	return append(append(workload.AllMixes(), workload.QoSMixes()...), workload.MotivationMix())
}

func mustMix(name string) workload.Mix {
	m, err := workload.MixByName(name)
	if err != nil {
		panic(err) // the plan names only built-in mixes
	}
	return m
}

// runFigures times whole passes of Figures 1-3, in the seed's order, each
// on a fresh runner, while r.more().
func runFigures(r *run) error {
	clock := &cellClock{run: r}
	runners, err := setupRunners(r, clock, 1, figureMixes())
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&r.memA)
	for pass := 0; r.more(); pass++ {
		if pass == len(runners) {
			dr, err := setupRunner(r, clock, 1, benchmarksOf(figureMixes()))
			if err != nil {
				return err
			}
			runners = append(runners, dr)
		}
		dr := runners[pass]
		var f1 *exper.Figure1Result
		var f2 *exper.Figure2Result
		var f3 *exper.Figure3Result
		root := r.tr.begin(layerBench, "figures.pass", 0, 0)
		err := clock.time(func() error {
			for _, name := range figuresOrder(r.seed) {
				sp := r.tr.begin(layerExper, name, spanID(root), 0)
				var err error
				switch name {
				case "figure1":
					f1, err = dr.r.Figure1()
				case "figure2":
					f2, err = dr.r.Figure2()
				case "figure3":
					f3, err = dr.r.Figure3()
				}
				r.tr.end(sp)
				if err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
			}
			return nil
		})
		r.tr.end(root)
		snap := dr.col.Snapshot()
		dr.snap = &snap
		if err != nil {
			return err
		}
		r.noteHeap()
		checkFigures(r, dr, f1, f2, f3, clock.misses, pass == 0)
		if pass == 0 {
			r.fixedQueue = snap.Queue
			if err := validate(r, dr.r, []workload.Mix{mustMix(validationMixes[0]), mustMix(validationMixes[1])}); err != nil {
				return err
			}
		}
		dr.r = nil // a pass holds only its own runner, so the heap peak does not grow with passes
	}
	runtime.ReadMemStats(&r.memB)
	collectObs(r, runners)
	r.attempted = r.cells
	return nil
}

// validate records the model error over mixes; the runner has their cells
// cached, or simulates the missing ones untimed.
func validate(r *run, runner *exper.Runner, mixes []workload.Mix) error {
	sp := r.tr.begin(layerExper, "ValidateModel", 0, 0)
	v, err := runner.ValidateModel(mixes)
	r.tr.end(sp)
	if err != nil {
		return fmt.Errorf("validating the model: %w", err)
	}
	r.errPct = 100 * v.MeanRelError()
	return nil
}

// checkFigures compares every cell of one pass, and the Figure 3 results,
// with the committed digests, and checks the figures' shape. Cells the pass
// simulated count as fresh; those of the first pass form the fixed set.
func checkFigures(r *run, dr *directRunner, f1 *exper.Figure1Result, f2 *exper.Figure2Result, f3 *exper.Figure3Result, misses map[string]bool, first bool) {
	sp := r.tr.begin(layerBench, "check", 0, 0)
	defer r.tr.end(sp)
	for _, c := range figureCells() {
		run, err := dr.r.RunMix(mustMix(c.Mix), c.Scheme)
		if err != nil {
			r.fail("%s: %v", c.key(), err)
			continue
		}
		if !r.dig.check(c.key(), run.Result) {
			r.fail("%s: digest mismatch", c.key())
		}
		if misses[c.key()] {
			r.fresh.add(run.Result)
			if first {
				r.fixed.add(run.Result)
			}
		}
	}
	for _, fm := range f3.Mixes {
		if key := "fig3/" + fm.Mix.Name; !r.dig.check(key, fm) {
			r.fail("%s: digest mismatch", key)
		}
	}
	if len(f1.Normalized) != len(exper.Figure1Schemes()) {
		r.fail("figure 1 has %d schemes", len(f1.Normalized))
	}
	if len(f2.Normalized) != len(workload.AllMixes()) {
		r.fail("figure 2 has %d mixes", len(f2.Normalized))
	}
	for mix, per := range f2.Normalized {
		for scheme, vals := range per {
			for obj, v := range vals {
				if !(v > 0) || math.IsInf(v, 0) {
					r.fail("figure 2 %s/%s/%v = %v", mix, scheme, obj, v)
				}
			}
		}
	}
}

// runGrid times one RunGrid per mix (seven cells, one warm-up), walking the
// held-out mixes in the seed's order on the first runner, then on the next
// runner in another order, while r.more(). No cell repeats on a runner, so
// the result cache never hits.
func runGrid(r *run) error {
	clock := &cellClock{run: r}
	mixes := gridMixes()
	runners, err := setupRunners(r, clock, gridScale, mixes)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&r.memA)
	for i := 0; r.more(); i++ {
		k := i / len(mixes)
		if k > 0 && i%len(mixes) == 0 {
			if err := retireGridRunner(r, runners[k-1], k-1 == 0); err != nil {
				return err
			}
		}
		if k == len(runners) {
			dr, err := setupRunner(r, clock, gridScale, benchmarksOf(mixes))
			if err != nil {
				return err
			}
			runners = append(runners, dr)
		}
		mix := gridOrder(r.seed, k)[i%len(mixes)]
		var runs []*exper.MixRun
		root := r.tr.begin(layerBench, "grid.unit", 0, 0)
		err := clock.time(func() error {
			sp := r.tr.begin(layerExper, "RunGrid", spanID(root), 0)
			defer r.tr.end(sp)
			var err error
			runs, err = runners[k].r.RunGrid(context.Background(), []workload.Mix{mix}, allSchemes())
			return err
		})
		r.tr.end(root)
		if err != nil {
			return fmt.Errorf("grid %s: %w", mix.Name, err)
		}
		r.noteHeap()
		sp := r.tr.begin(layerBench, "check", 0, 0)
		for _, run := range runs {
			key := cellKey(gridScale, run.Mix.Name, run.Scheme)
			if !r.dig.check(key, run.Result) {
				r.fail("%s: digest mismatch", key)
			}
			if clock.misses[key] {
				r.fresh.add(run.Result)
			}
		}
		r.tr.end(sp)
	}
	if runners[0].r != nil {
		if err := retireGridRunner(r, runners[0], true); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&r.memB)
	collectObs(r, runners)
	r.attempted = r.cells
	return nil
}

// retireGridRunner snapshots a runner's counters and drops it, so the heap
// holds one runner's cells at a time. For the first runner it first
// computes, untimed, the model error and the fixed cell set over every
// held-out mix, simulating any cell the timed phase did not reach, so
// neither depends on host speed.
func retireGridRunner(r *run, dr *directRunner, first bool) error {
	s := dr.col.Snapshot()
	dr.snap = &s
	if first {
		mixes := gridMixes()
		if err := validate(r, dr.r, mixes); err != nil {
			return err
		}
		for _, mix := range mixes {
			for _, sch := range allSchemes() {
				run, err := dr.r.RunMix(mix, sch)
				if err != nil {
					return err
				}
				key := cellKey(gridScale, mix.Name, sch)
				if !r.dig.check(key, run.Result) {
					r.fail("%s: digest mismatch", key)
				}
				r.fixed.add(run.Result)
			}
		}
		r.fixedQueue = dr.col.Snapshot().Queue
	}
	dr.r = nil
	return nil
}

// updateDigests simulates every cell any seed can choose and rewrites the
// digest file. Parallelism does not change results, so it uses every CPU.
func updateDigests() error {
	d, err := loadDigests(digestFile, true)
	if err != nil {
		return err
	}
	type part struct {
		scale float64
		mixes []workload.Mix
	}
	universe := []part{{1, figureMixes()}, {gridScale, gridMixes()}}
	for _, sc := range sweeperScales {
		universe = append(universe, part{sc, serveMixes()})
	}
	for _, u := range universe {
		cfg := quickConfig(u.scale)
		cfg.Parallelism = 0
		runner, err := exper.NewRunner(cfg)
		if err != nil {
			return err
		}
		runs, err := runner.RunGrid(context.Background(), u.mixes, allSchemes())
		if err != nil {
			return err
		}
		for _, run := range runs {
			d.check(cellKey(u.scale, run.Mix.Name, run.Scheme), run.Result)
		}
		if u.scale == 1 {
			f3, err := runner.Figure3()
			if err != nil {
				return err
			}
			for _, fm := range f3.Mixes {
				d.check("fig3/"+fm.Mix.Name, fm)
			}
		}
		fmt.Printf("scale %g: %d cells\n", u.scale, len(runs))
	}
	return d.save()
}
