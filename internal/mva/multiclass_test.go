package mva

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// MultiSolution reports an exact K-class MVA solution.
type MultiSolution struct {
	Population  []int       // solved population per class
	Throughput  []float64   // per-class throughput
	Response    []float64   // per-class total residence time (excludes think)
	Residence   [][]float64 // [class][center] residence time
	Queue       []float64   // per-center total queue length
	Utilization []float64   // per-center utilization summed over classes
}

// SolveMulti runs exact MVA for an arbitrary number of closed classes.
// No model uses more than two classes, so it lives here, as the
// reference the production solvers (Solve, SolveTwoClass) are checked
// against.
//
// demands[c][m] is class c's service demand at center m; think[c] and
// pop[c] are its think time and population. The exact recursion
// evaluates every population vector dominated by pop, so cost is
// O(len(centers) · K · Π(pop[c]+1)) time and O(M · Π(pop[c]+1))
// memory — exponential in the number of classes.
func SolveMulti(centers []Center, demands [][]float64, think []float64, pop []int) MultiSolution {
	m := len(centers)
	k := len(pop)
	if m == 0 {
		panic("mva: network needs at least one center")
	}
	if len(demands) != k || len(think) != k {
		panic(fmt.Sprintf("mva: %d classes but %d demand rows, %d think times", k, len(demands), len(think)))
	}
	if k == 0 {
		panic("mva: need at least one class")
	}
	for c := 0; c < k; c++ {
		if len(demands[c]) != m {
			panic(fmt.Sprintf("mva: class %d has %d demands for %d centers", c, len(demands[c]), m))
		}
		if pop[c] < 0 || think[c] < 0 {
			panic("mva: negative population or think time")
		}
		for i, v := range demands[c] {
			if v < 0 {
				panic(fmt.Sprintf("mva: negative demand %v (class %d center %d)", v, c, i))
			}
		}
	}

	// Mixed-radix index over population vectors.
	stride := make([]int, k)
	size := 1
	for c := k - 1; c >= 0; c-- {
		stride[c] = size
		size *= pop[c] + 1
	}
	// queue[idx*m + j] = Q_j at the population vector with index idx.
	queue := make([]float64, size*m)

	res := make([][]float64, k)
	for c := range res {
		res[c] = make([]float64, m)
	}
	x := make([]float64, k)
	vec := make([]int, k)

	// Enumerate population vectors in lexicographic order; every
	// vector's predecessors (one class-c customer removed) have
	// smaller indices, so a single pass suffices.
	for idx := 1; idx < size; idx++ {
		// Decode idx into vec.
		rem := idx
		for c := 0; c < k; c++ {
			vec[c] = rem / stride[c]
			rem %= stride[c]
		}
		for c := 0; c < k; c++ {
			if vec[c] == 0 {
				x[c] = 0
				for j := 0; j < m; j++ {
					res[c][j] = 0
				}
				continue
			}
			prev := queue[(idx-stride[c])*m:]
			var total float64
			for j := 0; j < m; j++ {
				if centers[j].Kind == Delay {
					res[c][j] = demands[c][j]
				} else {
					res[c][j] = demands[c][j] * (1 + prev[j])
				}
				total += res[c][j]
			}
			denom := think[c] + total
			if denom <= 0 {
				x[c] = 0
			} else {
				x[c] = float64(vec[c]) / denom
			}
		}
		cur := queue[idx*m:]
		for j := 0; j < m; j++ {
			var q float64
			for c := 0; c < k; c++ {
				q += x[c] * res[c][j]
			}
			cur[j] = q
		}
	}

	sol := MultiSolution{
		Population:  append([]int(nil), pop...),
		Throughput:  make([]float64, k),
		Response:    make([]float64, k),
		Residence:   make([][]float64, k),
		Queue:       make([]float64, m),
		Utilization: make([]float64, m),
	}
	final := queue[(size-1)*m:]
	for c := 0; c < k; c++ {
		sol.Residence[c] = append([]float64(nil), res[c]...)
		if pop[c] > 0 {
			sol.Throughput[c] = x[c]
			for j := 0; j < m; j++ {
				sol.Response[c] += res[c][j]
			}
		}
	}
	for j := 0; j < m; j++ {
		sol.Queue[j] = final[j]
		if centers[j].Kind == Queueing {
			for c := 0; c < k; c++ {
				sol.Utilization[j] += sol.Throughput[c] * demands[c][j]
			}
		}
	}
	if size == 1 {
		// Zero population everywhere: idle network.
		for j := 0; j < m; j++ {
			sol.Queue[j] = 0
		}
	}
	return sol
}

func TestSolveMultiMatchesSingleClass(t *testing.T) {
	centers := []Center{{Kind: Queueing}, {Kind: Queueing}, {Kind: Delay}}
	d := []float64{0.04, 0.015, 0.01}
	one := Solve(centers, d, 1.0, 35)
	multi := SolveMulti(centers, [][]float64{d}, []float64{1.0}, []int{35})
	if !almost(multi.Throughput[0], one.Throughput, 1e-12) {
		t.Fatalf("K=1: %v vs %v", multi.Throughput[0], one.Throughput)
	}
	for m := range centers {
		if !almost(multi.Queue[m], one.Queue[m], 1e-12) {
			t.Fatalf("K=1 queue at %d: %v vs %v", m, multi.Queue[m], one.Queue[m])
		}
	}
}

func TestSolveMultiMatchesTwoClass(t *testing.T) {
	centers := []Center{{Kind: Queueing}, {Kind: Queueing}}
	demands := [2][]float64{{0.04, 0.02}, {0.012, 0.008}}
	think := [2]float64{1.0, 0.5}
	pop := [2]int{25, 12}
	two := SolveTwoClass(centers, demands, think, pop)
	multi := SolveMulti(centers, [][]float64{demands[0], demands[1]},
		[]float64{think[0], think[1]}, []int{pop[0], pop[1]})
	for c := 0; c < 2; c++ {
		if !almost(multi.Throughput[c], two.Throughput[c], 1e-9) {
			t.Fatalf("class %d: %v vs %v", c, multi.Throughput[c], two.Throughput[c])
		}
		if !almost(multi.Response[c], two.Response[c], 1e-9) {
			t.Fatalf("class %d response: %v vs %v", c, multi.Response[c], two.Response[c])
		}
	}
	for m := range centers {
		if !almost(multi.Utilization[m], two.Utilization[m], 1e-9) {
			t.Fatalf("center %d utilization mismatch", m)
		}
	}
}

func TestSolveMultiThreeIdenticalClassesMerge(t *testing.T) {
	// Three identical classes must behave like one class with the
	// merged population.
	centers := []Center{{Kind: Queueing}, {Kind: Queueing}}
	d := []float64{0.03, 0.01}
	merged := Solve(centers, d, 1.0, 24)
	multi := SolveMulti(centers, [][]float64{d, d, d},
		[]float64{1, 1, 1}, []int{8, 8, 8})
	total := multi.Throughput[0] + multi.Throughput[1] + multi.Throughput[2]
	if !almost(total, merged.Throughput, 1e-9*merged.Throughput) {
		t.Fatalf("3-class merge: %v vs %v", total, merged.Throughput)
	}
}

func TestSolveMultiLittlesLawPerClass(t *testing.T) {
	centers := []Center{{Kind: Queueing}, {Kind: Delay}}
	demands := [][]float64{{0.05, 0.01}, {0.02, 0.005}, {0.01, 0.02}}
	think := []float64{1, 0.8, 1.2}
	pop := []int{6, 9, 4}
	sol := SolveMulti(centers, demands, think, pop)
	for c := range pop {
		lhs := float64(pop[c])
		rhs := sol.Throughput[c] * (think[c] + sol.Response[c])
		if !almost(lhs, rhs, 1e-6*lhs) {
			t.Fatalf("class %d: Little's law %v vs %v", c, lhs, rhs)
		}
	}
}

func TestSolveMultiZeroPopulationClass(t *testing.T) {
	centers := []Center{{Kind: Queueing}}
	sol := SolveMulti(centers, [][]float64{{0.05}, {0.5}},
		[]float64{1, 1}, []int{10, 0})
	if sol.Throughput[1] != 0 || sol.Response[1] != 0 {
		t.Fatalf("empty class active: %+v", sol)
	}
	one := Solve(centers, []float64{0.05}, 1, 10)
	if !almost(sol.Throughput[0], one.Throughput, 1e-9) {
		t.Fatalf("occupied class: %v vs %v", sol.Throughput[0], one.Throughput)
	}
}

func TestSolveMultiAllZero(t *testing.T) {
	sol := SolveMulti([]Center{{Kind: Queueing}}, [][]float64{{0.1}}, []float64{1}, []int{0})
	if sol.Throughput[0] != 0 || sol.Queue[0] != 0 {
		t.Fatalf("idle network: %+v", sol)
	}
}

func TestSolveMultiPanics(t *testing.T) {
	cases := []func(){
		func() { SolveMulti(nil, nil, nil, nil) },
		func() { SolveMulti([]Center{{}}, [][]float64{}, []float64{}, []int{}) },
		func() { SolveMulti([]Center{{}}, [][]float64{{1, 2}}, []float64{1}, []int{1}) },
		func() { SolveMulti([]Center{{}}, [][]float64{{-1}}, []float64{1}, []int{1}) },
		func() { SolveMulti([]Center{{}}, [][]float64{{1}}, []float64{-1}, []int{1}) },
		func() { SolveMulti([]Center{{}}, [][]float64{{1}}, []float64{1}, []int{-1}) },
		func() { SolveMulti([]Center{{}}, [][]float64{{1}}, []float64{1, 2}, []int{1}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestQuickMultiMatchesTwoClass(t *testing.T) {
	// Property: for random two-class inputs, the K-class solver and
	// the dedicated two-class solver agree exactly.
	f := func(d1, d2, d3, d4 uint16, p1, p2 uint8) bool {
		centers := []Center{{Kind: Queueing}, {Kind: Queueing}}
		demands := [2][]float64{
			{float64(d1%500+1) / 1e4, float64(d2%500+1) / 1e4},
			{float64(d3%500+1) / 1e4, float64(d4%500+1) / 1e4},
		}
		think := [2]float64{1, 1}
		pop := [2]int{int(p1 % 20), int(p2 % 20)}
		two := SolveTwoClass(centers, demands, think, pop)
		multi := SolveMulti(centers, [][]float64{demands[0], demands[1]},
			[]float64{1, 1}, []int{pop[0], pop[1]})
		for c := 0; c < 2; c++ {
			if math.Abs(two.Throughput[c]-multi.Throughput[c]) > 1e-9*(two.Throughput[c]+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMultiPopulationConservation(t *testing.T) {
	f := func(d1, d2, d3 uint16, p1, p2, p3 uint8) bool {
		centers := []Center{{Kind: Queueing}, {Kind: Queueing}}
		demands := [][]float64{
			{float64(d1%300+1) / 1e4, 0.01},
			{float64(d2%300+1) / 1e4, 0.02},
			{float64(d3%300+1) / 1e4, 0.005},
		}
		think := []float64{1, 1, 1}
		pop := []int{int(p1 % 10), int(p2 % 10), int(p3 % 10)}
		sol := SolveMulti(centers, demands, think, pop)
		var held float64
		for _, q := range sol.Queue {
			held += q
		}
		for c := range pop {
			held += sol.Throughput[c] * think[c]
		}
		want := float64(pop[0] + pop[1] + pop[2])
		return math.Abs(held-want) <= 1e-6*(want+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
