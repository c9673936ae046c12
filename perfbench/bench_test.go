package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	var s samples
	for i := 1; i <= 19; i++ {
		s.add(float64(i))
	}
	if _, ok := s.pct(0.50); ok {
		t.Fatal("p50 of 19 samples leaves 9 beyond it and must not be reported")
	}
	s.add(20)
	if v, ok := s.pct(0.50); !ok || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10, true", v, ok)
	}
	for i := 21; i <= 99; i++ {
		s.add(float64(i))
	}
	if _, ok := s.pct(0.90); ok {
		t.Fatal("p90 of 99 samples leaves 9 beyond it and must not be reported")
	}
	s.add(100)
	if v, ok := s.pct(0.90); !ok || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if s.n() != 100 {
		t.Fatalf("sample count %d, want 100", s.n())
	}
	if _, ok := s.pct(0.99); ok {
		t.Fatal("p99 of 100 samples must not be reported")
	}
}

func TestPercentileUnsortedInput(t *testing.T) {
	var s samples
	for i := 40; i >= 1; i-- {
		s.add(float64(i))
	}
	if v, _ := s.pct(0.5); v != 20 {
		t.Fatalf("p50 = %v, want 20", v)
	}
	s.add(0) // adding after a read re-sorts
	if v, _ := s.pct(0.5); v != 20 {
		t.Fatalf("p50 after add = %v, want 20", v)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median = %v", got)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: layerBench, Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: layerExper, Start: 10, End: 30},
		{ID: 3, Parent: 1, Layer: layerExper, Start: 20, End: 50},  // overlaps 2
		{ID: 4, Parent: 1, Layer: layerExper, Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 3, Layer: layerServe, Start: 25, End: 35},
	}
	self := selfTimes(spans)
	// bench: 100 - |[10,50] u [90,100]| = 50
	if self[layerBench] != 50 {
		t.Errorf("bench self = %v, want 50", int64(self[layerBench]))
	}
	// exper: 20 + (30 - 10) + 30 = 70
	if self[layerExper] != 70 {
		t.Errorf("exper self = %v, want 70", int64(self[layerExper]))
	}
	if self[layerServe] != 10 {
		t.Errorf("serve self = %v, want 10", int64(self[layerServe]))
	}
}

func TestTracerNilIsNoOp(t *testing.T) {
	var tr *tracer
	sp := tr.begin(layerBench, "x", 0, 0)
	tr.end(sp)
	if sp != nil || spanID(sp) != 0 || tr.all() != nil {
		t.Fatal("a nil tracer must record nothing")
	}
	tr = newTracer()
	root := tr.begin(layerBench, "root", 0, 7)
	child := tr.begin(layerServe, "child", spanID(root), 7)
	time.Sleep(time.Millisecond)
	tr.end(child)
	tr.end(root)
	got := tr.all()
	if len(got) != 2 || got[0].Parent != root.ID || got[0].Req != 7 || got[1].dur() < time.Millisecond {
		t.Fatalf("spans = %+v", got)
	}
}

type canonInner struct {
	X float64
	N int
}

type canonOuter struct {
	Name  string
	Vals  []float64
	Inner canonInner
	M     map[int]float64
	P     *canonInner
}

func TestCanonicalFixedOrderAndFloatBits(t *testing.T) {
	v := canonOuter{
		Name:  "a",
		Vals:  []float64{1, math.Copysign(0, -1)},
		Inner: canonInner{X: 0.5, N: -3},
		M:     map[int]float64{2: 1, 1: 2},
	}
	want := `{Name="a";Vals=[2:f3ff0000000000000,f8000000000000000,];` +
		`Inner={X=f3fe0000000000000;N=-3;};M=map[1:f4000000000000000,2:f3ff0000000000000,];P=nil;}`
	if got := canonical(v); got != want {
		t.Fatalf("canonical =\n%s\nwant\n%s", got, want)
	}
	// Map iteration order never shows; a last-bit float change always does.
	for i := 0; i < 20; i++ {
		if canonical(v) != want {
			t.Fatal("canonical form depends on map order")
		}
	}
	w := v
	w.Vals = []float64{1, 0} // +0 instead of -0
	if digest(w) == digest(v) {
		t.Fatal("-0 and +0 must digest differently")
	}
	w = v
	w.Inner.X = math.Nextafter(0.5, 1)
	if digest(w) == digest(v) {
		t.Fatal("a one-ulp change must change the digest")
	}
}

func TestDigestsCheck(t *testing.T) {
	d := &digests{want: map[string]string{"a": digest(1.0)}}
	if !d.check("a", 1.0) {
		t.Fatal("matching value reported as mismatch")
	}
	if d.check("a", 2.0) || d.check("unknown", 1.0) {
		t.Fatal("a changed value and a cell outside the universe must both mismatch")
	}
}

func TestServePlanDeterministicAndDisjoint(t *testing.T) {
	a, b := newServePlan(42), newServePlan(42)
	if !reflect.DeepEqual(a.Disk, b.Disk) || !reflect.DeepEqual(a.Prime, b.Prime) || !reflect.DeepEqual(a.Sweeper, b.Sweeper) {
		t.Fatal("the same seed gave different plans")
	}
	ra, rb := a.reader(), b.reader()
	for i := 0; i < 2000; i++ {
		if x, y := ra.next(), rb.next(); x != y {
			t.Fatalf("reader request %d differs: %+v vs %+v", i, x, y)
		}
	}
	if reflect.DeepEqual(a.Sweeper, newServePlan(43).Sweeper) {
		t.Fatal("another seed gave the same sweeper order")
	}

	hit := make(map[cell]bool)
	for _, c := range a.Disk {
		hit[c] = true
	}
	seen := make(map[cell]bool)
	for _, c := range append(append([]cell(nil), a.Prime...), a.Sweeper...) {
		if hit[c] {
			t.Fatalf("%v is in both the hit and the miss set", c)
		}
		if seen[c] {
			t.Fatalf("%v is requested twice as a miss", c)
		}
		seen[c] = true
	}
	if len(a.Sweeper) < 3*missTarget/2 {
		t.Fatalf("sweeper plan has %d cells; a fast run must not exhaust it", len(a.Sweeper))
	}
	if fixedMisses > missTarget {
		t.Fatal("the fixed cell set must lie inside the misses every run reaches")
	}
}

func TestReaderFirstPassTouchesEachCellOnce(t *testing.T) {
	p := newServePlan(7)
	rd := p.reader()
	firsts, scrapes := 0, 0
	for i := 1; i <= 500; i++ {
		q := rd.next()
		switch {
		case q.Scrape:
			scrapes++
			if i%scrapeEvery != 0 {
				t.Fatalf("scrape at request %d", i)
			}
		case q.First:
			firsts++
		}
	}
	if firsts != len(p.Disk) || scrapes != 500/scrapeEvery {
		t.Fatalf("firsts %d scrapes %d; want %d and %d", firsts, scrapes, len(p.Disk), 500/scrapeEvery)
	}
}

func TestDirectOrdersDeterministic(t *testing.T) {
	if !reflect.DeepEqual(figuresOrder(5), figuresOrder(5)) {
		t.Fatal("figures order not deterministic")
	}
	g1, g2 := gridOrder(5, 1), gridOrder(5, 1)
	if !reflect.DeepEqual(g1, g2) {
		t.Fatal("grid order not deterministic")
	}
	for _, m := range g1 {
		for _, v := range validationMixes {
			if m.Name == v {
				t.Fatalf("grid uses validation mix %s", v)
			}
		}
	}
	if len(g1) != len(gridMixes()) {
		t.Fatal("a grid runner must walk every held-out mix")
	}
}

// TestUniverseHasDigests guards the committed digest file: every cell any
// seed can request has an entry.
func TestUniverseHasDigests(t *testing.T) {
	d, err := loadDigests("digests.json", false)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, c := range figureCells() {
		keys = append(keys, c.key())
	}
	for _, m := range gridMixes() {
		for _, s := range allSchemes() {
			keys = append(keys, cellKey(gridScale, m.Name, s))
		}
	}
	for _, sc := range append([]float64{1}, sweeperScales...) {
		for _, m := range serveMixes() {
			for _, s := range allSchemes() {
				keys = append(keys, cellKey(sc, m.Name, s))
			}
		}
	}
	keys = append(keys, "fig3/mix-1", "fig3/mix-2")
	for _, k := range keys {
		if d.want[k] == "" {
			t.Errorf("no digest for %s", k)
		}
	}
}
