package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestNewRandDistinctSeeds(t *testing.T) {
	a, b := NewRand(1), NewRand(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams from different seeds coincide %d/100 times", same)
	}
}

func TestRandZeroSeedUsable(t *testing.T) {
	r := NewRand(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Fatalf("zero seed produced repetitive stream: %d distinct", len(seen))
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64MeanApproximatelyHalf(t *testing.T) {
	r := NewRand(9)
	var w Welford
	for i := 0; i < 100000; i++ {
		w.Add(r.Float64())
	}
	if math.Abs(w.Mean()-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want about 0.5", w.Mean())
	}
}

func TestExpMeanAndPositivity(t *testing.T) {
	r := NewRand(11)
	const mean = 0.25
	var w Welford
	for i := 0; i < 200000; i++ {
		x := r.Exp(mean)
		if x < 0 {
			t.Fatalf("negative exponential sample %v", x)
		}
		w.Add(x)
	}
	if math.Abs(w.Mean()-mean) > 0.01*mean*5 {
		t.Fatalf("exponential mean = %v, want about %v", w.Mean(), mean)
	}
}

func TestExpZeroMean(t *testing.T) {
	r := NewRand(1)
	if got := r.Exp(0); got != 0 {
		t.Fatalf("Exp(0) = %v, want 0", got)
	}
	if got := r.Exp(-1); got != 0 {
		t.Fatalf("Exp(-1) = %v, want 0", got)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRand(3)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c == 0 {
			t.Fatalf("value %d never drawn", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestBernoulliEdges(t *testing.T) {
	r := NewRand(5)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := NewRand(13)
	hits := 0
	const n, p = 100000, 0.3
	for i := 0; i < n; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-p) > 0.01 {
		t.Fatalf("Bernoulli(%v) rate = %v", p, rate)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRand(17)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := NewRand(19)
	for _, tc := range []struct{ n, k int }{{10, 0}, {10, 3}, {10, 10}, {1000, 5}, {8, 7}} {
		s := r.SampleWithoutReplacement(tc.n, tc.k)
		if len(s) != tc.k {
			t.Fatalf("n=%d k=%d: got %d values", tc.n, tc.k, len(s))
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= tc.n || seen[v] {
				t.Fatalf("n=%d k=%d: invalid sample %v", tc.n, tc.k, s)
			}
			seen[v] = true
		}
	}
}

func TestSampleWithoutReplacementPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k > n")
		}
	}()
	NewRand(1).SampleWithoutReplacement(3, 4)
}

func TestWelfordBasics(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Fatalf("N = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", w.Mean())
	}
	// Population variance of this classic set is 4; sample variance is 32/7.
	if math.Abs(w.Variance()-32.0/7.0) > 1e-12 {
		t.Fatalf("variance = %v, want %v", w.Variance(), 32.0/7.0)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Fatalf("min/max = %v/%v", w.Min(), w.Max())
	}
}

func TestWelfordMergeMatchesCombined(t *testing.T) {
	check := func(xs, ys []float64) bool {
		var a, b, all Welford
		for _, x := range xs {
			// Bound the magnitude to keep float comparisons meaningful.
			x = math.Mod(x, 1e6)
			a.Add(x)
			all.Add(x)
		}
		for _, y := range ys {
			y = math.Mod(y, 1e6)
			b.Add(y)
			all.Add(y)
		}
		a.Merge(&b)
		if a.N() != all.N() {
			return false
		}
		if all.N() == 0 {
			return true
		}
		tol := 1e-6 * (1 + math.Abs(all.Mean()))
		if math.Abs(a.Mean()-all.Mean()) > tol {
			return false
		}
		return math.Abs(a.Variance()-all.Variance()) <= 1e-4*(1+all.Variance())
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordCI95ShrinksWithN(t *testing.T) {
	r := NewRand(23)
	var small, large Welford
	for i := 0; i < 100; i++ {
		small.Add(r.Float64())
	}
	for i := 0; i < 10000; i++ {
		large.Add(r.Float64())
	}
	if large.CI95() >= small.CI95() {
		t.Fatalf("CI did not shrink: %v vs %v", large.CI95(), small.CI95())
	}
}

func TestTimeWeightedConstantSignal(t *testing.T) {
	var tw TimeWeighted
	tw.Update(0, 3)
	tw.Update(10, 3)
	if got := tw.Mean(20); math.Abs(got-3) > 1e-12 {
		t.Fatalf("mean of constant 3 = %v", got)
	}
}

func TestTimeWeightedStep(t *testing.T) {
	var tw TimeWeighted
	tw.Update(0, 0)
	tw.Update(5, 1) // 0 for 5s, then 1 for 5s
	if got := tw.Mean(10); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("step mean = %v, want 0.5", got)
	}
}

func TestTimeWeightedReset(t *testing.T) {
	var tw TimeWeighted
	tw.Update(0, 100) // huge warm-up value
	tw.Reset(10)
	tw.Update(10, 1)
	if got := tw.Mean(20); math.Abs(got-1) > 1e-12 {
		t.Fatalf("post-reset mean = %v, want 1 (warm-up must be discarded)", got)
	}
}

func TestTimeWeightedResetCarriesValue(t *testing.T) {
	var tw TimeWeighted
	tw.Update(0, 2)
	tw.Reset(10)
	// No further updates: the signal is still 2.
	if got := tw.Mean(20); math.Abs(got-2) > 1e-12 {
		t.Fatalf("carried value mean = %v, want 2", got)
	}
}

func TestMeanMedian(t *testing.T) {
	if Mean(nil) != 0 || Median(nil) != 0 {
		t.Fatal("empty-slice mean/median should be 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("mean = %v", got)
	}
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Fatalf("odd median = %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("even median = %v", got)
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("Median mutated input: %v", xs)
	}
}

func TestRelativeError(t *testing.T) {
	if got := RelativeError(110, 100); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("rel err = %v", got)
	}
	if got := RelativeError(0, 0); got != 0 {
		t.Fatalf("0/0 rel err = %v", got)
	}
	if got := RelativeError(1, 0); !math.IsInf(got, 1) {
		t.Fatalf("x/0 rel err = %v", got)
	}
}

func TestFormatMS(t *testing.T) {
	if got := FormatMS(0.04162); got != "41.62" {
		t.Fatalf("FormatMS = %q", got)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRand(31)
	a := r.Split()
	b := r.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams coincide %d/100 times", same)
	}
}

func TestQuickExpAlwaysNonNegative(t *testing.T) {
	r := NewRand(37)
	f := func(mean float64) bool {
		m := math.Mod(math.Abs(mean), 1e3)
		return r.Exp(m) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
