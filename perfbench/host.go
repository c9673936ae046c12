package main

import (
	"math/rand"
	"time"
)

// hostRefMops is the host index the end-to-end host-time metrics are scaled
// to: a host that runs the probe at this rate reports them unscaled.
const hostRefMops = 10

// probeSlice is one interleaved probe: short against a cell (about 150 ms)
// so the host is sampled often, long against the timer's resolution.
const probeSlice = 20 * time.Millisecond

// probeSets x probeWays is the probe's cache model: 512 Ki entries, a 4 MiB
// working set, comparable to the simulator's own.
const (
	probeSets  = 1 << 15
	probeWays  = 16
	probeBytes = probeSets * probeWays * 8 // tags and ages, 4 bytes each
)

// prober measures how fast this host runs a fixed, simulator-like kernel: a
// 16-way LRU cache model fed a mostly sequential address stream. The kernel
// never changes with the program, so its rate tracks only the host. On a
// shared 2-vCPU host the simulator's speed moves by tens of percent within
// minutes, and the probe's moves with it. Slices of it run between cells,
// outside the timed phase (on serve_mixed, as pauses of the reader), and the
// run's host-time metrics are scaled by the rate they measured.
type prober struct {
	tags  []uint32
	ages  []uint32
	clock uint32
	seq   uint64
	rng   *rand.Rand
	ops   int
	spent time.Duration
}

func newProber() *prober {
	return &prober{
		tags: make([]uint32, probeSets*probeWays),
		ages: make([]uint32, probeSets*probeWays),
		rng:  rand.New(rand.NewSource(7)),
	}
}

// run probes for about d and returns how long it took.
func (p *prober) run(d time.Duration) time.Duration {
	start := time.Now()
	for time.Since(start) < d {
		for k := 0; k < 5000; k++ {
			addr := p.seq
			if k&3 == 0 {
				addr = uint64(p.rng.Int63n(1 << 32))
			} else {
				p.seq += 64
			}
			line := uint32(addr >> 6)
			base := int(line&(probeSets-1)) * probeWays
			p.clock++
			victim, oldest := base, ^uint32(0)
			for w := base; w < base+probeWays; w++ {
				if p.tags[w] == line {
					victim = -1
					p.ages[w] = p.clock
					break
				}
				if p.ages[w] < oldest {
					oldest, victim = p.ages[w], w
				}
			}
			if victim >= 0 {
				p.tags[victim], p.ages[victim] = line, p.clock
			}
		}
		p.ops += 5000
	}
	took := time.Since(start)
	p.spent += took
	return took
}

// mops is the probe's rate over every slice run so far, in million accesses
// per second.
func (p *prober) mops() float64 {
	if p.spent == 0 {
		return 0
	}
	return float64(p.ops) / p.spent.Seconds() / 1e6
}
