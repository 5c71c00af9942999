package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{
		{50, 50}, {90, 90}, {99, 99}, {100, 100}, {1, 1}, {0.1, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestTailSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 99, true}, {999, 99, false}, {100, 90, true}, {99, 90, false}, {20, 50, true}, {19, 50, false},
	} {
		if got := tailSupported(c.n, c.p); got != c.want {
			t.Errorf("tailSupported(%d, p%v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", got)
	}
}

func TestSpeedupErrPct(t *testing.T) {
	paper := [][]float64{{1, 2}, {4, 5}}
	// The baseline cell is skipped even when it disagrees; the other
	// three are off by 10%, 25% and 0%.
	measured := [][]float64{{9, 2.2}, {3, 5}}
	if got, want := speedupErrPct(measured, paper), 100*(0.1+0.25+0)/3; math.Abs(got-want) > 1e-12 {
		t.Errorf("speedupErrPct = %v, want %v", got, want)
	}
	if got := speedupErrPct(paper, paper); got != 0 {
		t.Errorf("error of the paper against itself = %v", got)
	}
}

func TestCapacityStopsAtFirstFailure(t *testing.T) {
	ladder := []float64{100, 200, 300, 400, 500}
	var tried []float64
	got := capacity(ladder, func(r float64) bool {
		tried = append(tried, r)
		return r != 300 // 400 would pass again, but past a failure it must not count
	})
	if got != 200 {
		t.Errorf("capacity = %v, want 200", got)
	}
	if len(tried) != 3 {
		t.Errorf("tried %v, want the search to stop at the first failing rate", tried)
	}
	if got := capacity(ladder, func(float64) bool { return true }); got != 500 {
		t.Errorf("capacity with every rate passing = %v, want 500", got)
	}
	if got := capacity(ladder, func(float64) bool { return false }); got != 0 {
		t.Errorf("capacity with no rate passing = %v, want 0", got)
	}
}

func TestTailPct(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{2000, 99}, {1000, 99}, {500, 98}, {100, 90}, {20, 50}, {5, 50}} {
		if got := tailPct(c.n); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("tailPct(%d) = %v, want %v", c.n, got, c.want)
		}
		if c.n > 20 && !tailSupported(c.n, tailPct(c.n)) {
			t.Errorf("tailPct(%d) leaves fewer than ten samples beyond it", c.n)
		}
	}
}

func TestParseSteal(t *testing.T) {
	stat := "cpu  789760 0 91095 4223865 395 0 13297 139101 0 0\n" +
		"cpu0 394880 0 45547 2111932 197 0 6648 69550 0 0\n" +
		"cpu1 394880 0 45548 2111933 198 0 6649 69551 0 0\n" +
		"intr 1 2 3\n"
	// 139101 ticks of 10 ms over two CPUs.
	if got, want := parseSteal(stat), 695505*time.Millisecond; got != want {
		t.Errorf("parseSteal = %v, want %v", got, want)
	}
	if got := parseSteal("intr 1 2 3\n"); got != 0 {
		t.Errorf("parseSteal without cpu lines = %v, want 0", got)
	}
}

func TestLagGrows(t *testing.T) {
	flat := []float64{0.5, 3, 0.4, 0.6, 2.5, 0.5, 0.4, 0.7, 0.5}
	if lagGrows(flat, 1) {
		t.Error("a noisy but flat lag reads as growing")
	}
	growing := []float64{0.5, 0.6, 0.4, 3, 4, 5, 7, 8, 9}
	if !lagGrows(growing, 1) {
		t.Error("a growing lag reads as flat")
	}
}
