package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestRunningBasics(t *testing.T) {
	var r Running
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	if r.N() != 8 {
		t.Fatalf("N = %d, want 8", r.N())
	}
	if !almostEq(r.Mean(), 5, 1e-12) {
		t.Errorf("mean = %v, want 5", r.Mean())
	}
	// Sample variance of this classic set is 32/7.
	if !almostEq(r.Variance(), 32.0/7.0, 1e-12) {
		t.Errorf("variance = %v, want %v", r.Variance(), 32.0/7.0)
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Errorf("min/max = %v/%v, want 2/9", r.Min(), r.Max())
	}
}

func TestRunningEmpty(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Variance() != 0 || r.StdDev() != 0 {
		t.Error("empty accumulator should report zeros")
	}
}

func TestRunningSingle(t *testing.T) {
	var r Running
	r.Add(3.5)
	if r.Variance() != 0 {
		t.Error("single observation has zero variance")
	}
	if r.Min() != 3.5 || r.Max() != 3.5 {
		t.Error("min/max of single observation")
	}
}

func TestRunningMergeMatchesSequential(t *testing.T) {
	merged := func(a, b []float64) bool {
		var whole, left, right Running
		for _, x := range a {
			whole.Add(x)
			left.Add(x)
		}
		for _, x := range b {
			whole.Add(x)
			right.Add(x)
		}
		left.Merge(&right)
		if whole.N() != left.N() {
			return false
		}
		if whole.N() == 0 {
			return true
		}
		return almostEq(whole.Mean(), left.Mean(), 1e-6*(1+math.Abs(whole.Mean()))) &&
			almostEq(whole.Variance(), left.Variance(), 1e-6*(1+whole.Variance()))
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		a := randomSlice(rng, rng.Intn(50))
		b := randomSlice(rng, rng.Intn(50))
		if !merged(a, b) {
			t.Fatalf("merge mismatch for lens %d,%d", len(a), len(b))
		}
	}
}

func randomSlice(r *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = r.NormFloat64()*10 + 50
	}
	return s
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Mean(xs) != 2.5 {
		t.Errorf("mean = %v", Mean(xs))
	}
	want := math.Sqrt((2.25 + 0.25 + 0.25 + 2.25) / 3)
	if !almostEq(StdDev(xs), want, 1e-12) {
		t.Errorf("stddev = %v, want %v", StdDev(xs), want)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Error("degenerate inputs should yield 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 15}, {100, 50}, {50, 35}, {25, 20}, {75, 40},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEq(got, c.want, 1e-9) {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	// Interpolated value.
	if got := Percentile([]float64{10, 20}, 50); !almostEq(got, 15, 1e-9) {
		t.Errorf("P50 of {10,20} = %v, want 15", got)
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile should be 0")
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestRunningQuickMeanInRange(t *testing.T) {
	// Property: mean always lies within [min, max].
	f := func(xs []float64) bool {
		var r Running
		ok := true
		for _, x := range xs {
			if math.IsNaN(x) || math.Abs(x) > 1e100 {
				return true // avoid overflow regimes; not the property under test
			}
			r.Add(x)
		}
		if r.N() > 0 {
			ok = r.Mean() >= r.Min()-1e-9 && r.Mean() <= r.Max()+1e-9
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
