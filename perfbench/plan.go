package main

import (
	"math/rand"

	"bwpart/internal/exper"
	"bwpart/internal/workload"
)

// The cell universe is fixed; a workload seed only picks cells from it and
// their order. The simulation configuration, RNG seed included, never
// changes, so every cell has one committed digest.

// allSchemes is No_partitioning plus the six Figure 2 schemes.
func allSchemes() []string {
	return append([]string{exper.NoPartitioning}, exper.Figure2Schemes()...)
}

// validationMixes are the two mixes the model is validated on in the
// figures workload; the grid workload holds them out.
var validationMixes = []string{"hetero-1", "hetero-2"}

// gridScale puts the DRAM bus at about 0.43 utilisation: cores dispatch
// nearly every cycle, so cpu, cache and workload generation dominate.
const gridScale = 4

// gridMixes are the Table IV mixes minus the validation mixes.
func gridMixes() []workload.Mix {
	var out []workload.Mix
	for _, m := range workload.AllMixes() {
		if m.Name != validationMixes[0] && m.Name != validationMixes[1] {
			out = append(out, m)
		}
	}
	return out
}

// serveMixes are every named mix the daemon resolves, minus the Figure 1
// motivation mix (it aliases hetero-5, so its cells would be cache hits).
func serveMixes() []workload.Mix {
	return append(workload.AllMixes(), workload.QoSMixes()...)
}

// readerMixes are the on-disk set of serve_mixed, at scale 1: server A
// simulates them before the timed phase and the reader re-reads them.
var readerMixes = []string{"homo-1", "homo-5", "hetero-3", "hetero-6"}

// sweeperScales hold the sweeper's cells. They differ from the reader's
// scale, so the miss set can never touch an on-disk cell, and they keep the
// bus saturated-to-busy like scale 1, so miss cost stays one class.
var sweeperScales = []float64{1.25, 1.5}

// primeMixes together contain all thirteen benchmarks. One untimed
// No_partitioning request per mix and sweeper scale profiles every
// benchmark before timing starts, so no timed miss pays for profiling.
var primeMixes = []string{"homo-2", "homo-3", "homo-7", "mix-1"}

// cell is one (scale, mix, scheme) request.
type cell struct {
	Scale  float64
	Mix    string
	Scheme string
}

func (c cell) key() string { return cellKey(c.Scale, c.Mix, c.Scheme) }

// figuresOrder is the seed's order of the three figure passes.
func figuresOrder(seed int64) []string {
	names := []string{"figure1", "figure2", "figure3"}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	return names
}

// gridOrder is the order in which the runner with the given index walks
// the grid mixes. The first runner takes the seed's order. The timed phase
// spills a few mixes onto the second runner, which takes Table IV order for
// every seed, so seeds change the order of the work, not its mix.
func gridOrder(seed int64, runner int) []workload.Mix {
	mixes := gridMixes()
	if runner == 0 {
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(mixes), func(i, j int) { mixes[i], mixes[j] = mixes[j], mixes[i] })
	}
	return mixes
}

// servePlan is one serve_mixed request plan.
type servePlan struct {
	Disk    []cell // written by server A, in submission order
	Prime   []cell // untimed, profiles every benchmark at each sweeper scale
	Sweeper []cell // timed misses, mix-major so each mix warms once
	seed    int64
}

func newServePlan(seed int64) servePlan {
	rng := rand.New(rand.NewSource(seed))
	p := servePlan{seed: seed}
	for _, m := range readerMixes {
		for _, s := range allSchemes() {
			p.Disk = append(p.Disk, cell{1, m, s})
		}
	}
	rng.Shuffle(len(p.Disk), func(i, j int) { p.Disk[i], p.Disk[j] = p.Disk[j], p.Disk[i] })

	prime := make(map[cell]bool)
	for _, sc := range sweeperScales {
		for _, m := range primeMixes {
			c := cell{sc, m, exper.NoPartitioning}
			p.Prime = append(p.Prime, c)
			prime[c] = true
		}
	}
	// One round per sweeper scale, each over every serve mix in a fresh
	// seed order: a run's timed misses always cover the first round whole,
	// so seeds change the order of the work, not its mix.
	for _, sc := range sweeperScales {
		mixes := serveMixes()
		rng.Shuffle(len(mixes), func(i, j int) { mixes[i], mixes[j] = mixes[j], mixes[i] })
		for _, m := range mixes {
			schemes := allSchemes()
			rng.Shuffle(len(schemes), func(i, j int) { schemes[i], schemes[j] = schemes[j], schemes[i] })
			for _, s := range schemes {
				if c := (cell{sc, m.Name, s}); !prime[c] {
					p.Sweeper = append(p.Sweeper, c)
				}
			}
		}
	}
	return p
}

// scrapeEvery is the reader's fixed /metrics cadence, in requests.
const scrapeEvery = 25

// reader yields the reader client's requests: /metrics on every
// scrapeEvery-th request, otherwise the on-disk cells, pass after pass. The
// first pass walks them in submission order and touches each once (a
// checkpoint read); later passes, in fresh seed-chosen orders, are hits.
type reader struct {
	disk    []cell
	rng     *rand.Rand
	i       int
	pass    []cell
	touched map[cell]bool
}

func (p servePlan) reader() *reader {
	return &reader{disk: p.Disk, rng: rand.New(rand.NewSource(p.seed ^ 0x5eed)), touched: make(map[cell]bool)}
}

// readerReq is one reader request: a scrape, or a cell and whether this is
// the cell's first touch.
type readerReq struct {
	Scrape bool
	Cell   cell
	First  bool
}

func (r *reader) next() readerReq {
	r.i++
	if r.i%scrapeEvery == 0 {
		return readerReq{Scrape: true}
	}
	if len(r.pass) == 0 {
		r.pass = append([]cell(nil), r.disk...)
		if len(r.touched) > 0 {
			r.rng.Shuffle(len(r.pass), func(i, j int) { r.pass[i], r.pass[j] = r.pass[j], r.pass[i] })
		}
	}
	c := r.pass[0]
	r.pass = r.pass[1:]
	first := !r.touched[c]
	r.touched[c] = true
	return readerReq{Cell: c, First: first}
}
