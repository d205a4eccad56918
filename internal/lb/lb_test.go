package lb

import (
	"sync"
	"testing"
)

// acquire is AcquireWhere over every replica.
func acquire(b *Balancer) int {
	i, err := b.AcquireWhere(func(int) bool { return true })
	if err != nil {
		panic(err)
	}
	return i
}

// releasePanics reports whether releasing slot i panics (its load is
// already zero).
func releasePanics(b *Balancer, i int) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	b.Release(i)
	return false
}

func TestAcquirePicksLeastLoaded(t *testing.T) {
	b := New(3)
	if acquire(b) != 0 {
		t.Fatal("first acquire should pick index 0")
	}
	if acquire(b) != 1 || acquire(b) != 2 {
		t.Fatal("acquires did not spread")
	}
	// All at load 1; tie goes to 0.
	if acquire(b) != 0 {
		t.Fatal("tie break wrong")
	}
	b.Release(1)
	if acquire(b) != 1 {
		t.Fatal("release did not make replica 1 least loaded")
	}
}

func TestAcquireWhere(t *testing.T) {
	b := New(4)
	idx, err := b.AcquireWhere(func(i int) bool { return i == 2 })
	if err != nil || idx != 2 {
		t.Fatalf("AcquireWhere = %d, %v", idx, err)
	}
	if _, err := b.AcquireWhere(func(int) bool { return false }); err != ErrNoEligible {
		t.Fatalf("no eligible: %v", err)
	}
}

func TestLoadAndSize(t *testing.T) {
	b := New(2)
	acquire(b)
	acquire(b)
	acquire(b)
	// Loads 2 and 1: slot 0 releases twice, slot 1 once, and no more.
	if releasePanics(b, 0) || releasePanics(b, 0) || releasePanics(b, 1) {
		t.Fatal("release of an acquired slot panicked")
	}
	if !releasePanics(b, 0) || !releasePanics(b, 1) {
		t.Fatal("loads exceeded the acquisitions")
	}
	if b.Size() != 2 {
		t.Fatalf("size = %d", b.Size())
	}
}

func TestReleasePanicsOnUnderflow(t *testing.T) {
	b := New(1)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	b.Release(0)
}

func TestNewPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestAddGrowsMembership(t *testing.T) {
	b := New(1)
	if idx := b.Add(); idx != 1 {
		t.Fatalf("Add = %d, want 1", idx)
	}
	if b.Size() != 2 || b.Removed(1) || !b.Healthy(1) {
		t.Fatalf("size = %d, added slot removed=%v healthy=%v", b.Size(), b.Removed(1), b.Healthy(1))
	}
	// The new slot starts empty and healthy, so it receives traffic.
	seen := map[int]int{}
	for i := 0; i < 4; i++ {
		seen[acquire(b)]++
	}
	if seen[0] != 2 || seen[1] != 2 {
		t.Fatalf("acquires did not spread onto the added slot: %v", seen)
	}
}

func TestRemoveTombstonesSlot(t *testing.T) {
	b := New(3)
	idx := acquire(b) // outstanding txn on some replica
	b.Remove(1)
	if !b.Removed(1) || b.Removed(0) || b.Removed(2) {
		t.Fatal("removed flags wrong")
	}
	if b.Size() != 3 {
		t.Fatalf("size = %d, want 3 (indices are stable)", b.Size())
	}
	for i := 0; i < 10; i++ {
		if got := acquire(b); got == 1 {
			t.Fatal("acquired a removed slot")
		}
	}
	// Indices are stable: releasing the pre-removal acquisition works.
	b.Release(idx)
	// Removing every slot leaves nothing eligible.
	b.Remove(0)
	b.Remove(2)
	if _, err := b.AcquireWhere(func(int) bool { return true }); err != ErrNoEligible {
		t.Fatalf("all-removed acquire: %v", err)
	}
}

func TestRemovalDoesNotBiasLowIndices(t *testing.T) {
	// Acquire-and-hold across a 4-replica set with slot 1 removed: the
	// rotating tie-break must spread ties over all survivors instead of
	// always favoring slot 0.
	b := New(4)
	b.Remove(1)
	seen := map[int]int{}
	for round := 0; round < 5; round++ {
		held := make([]int, 0, 3)
		for i := 0; i < 3; i++ {
			idx := acquire(b)
			seen[idx]++
			held = append(held, idx)
		}
		for _, idx := range held {
			b.Release(idx)
		}
	}
	if seen[1] != 0 {
		t.Fatalf("removed slot acquired: %v", seen)
	}
	for _, i := range []int{0, 2, 3} {
		if seen[i] != 5 {
			t.Fatalf("tie-break biased: %v", seen)
		}
	}
}

func TestRotationIsDeterministic(t *testing.T) {
	runSeq := func() []int {
		b := New(3)
		out := make([]int, 0, 8)
		for i := 0; i < 4; i++ {
			out = append(out, acquire(b))
		}
		b.Release(out[0])
		for i := 0; i < 4; i++ {
			out = append(out, acquire(b))
		}
		return out
	}
	a, c := runSeq(), runSeq()
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("same call sequence diverged: %v vs %v", a, c)
		}
	}
}

func TestConcurrentBalance(t *testing.T) {
	b := New(4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				idx := acquire(b)
				b.Release(idx)
			}
		}()
	}
	wg.Wait()
	for i := 0; i < 4; i++ {
		if !releasePanics(b, i) {
			t.Fatalf("replica %d still loaded after all released", i)
		}
	}
}

func TestHealthRouting(t *testing.T) {
	b := New(3)
	b.SetHealthy(1, false)
	if b.Healthy(1) || !b.Healthy(0) {
		t.Fatal("health flags not recorded")
	}
	// With replica 1 down, acquisitions spread over 0 and 2 only.
	seen := map[int]int{}
	for i := 0; i < 6; i++ {
		seen[acquire(b)]++
	}
	if seen[1] != 0 || seen[0] != 3 || seen[2] != 3 {
		t.Fatalf("acquired %v with replica 1 down", seen)
	}
	// With every replica down, acquisition falls back instead of failing.
	b.SetHealthy(0, false)
	b.SetHealthy(2, false)
	if _, err := b.AcquireWhere(func(int) bool { return true }); err != nil {
		t.Fatalf("all-down acquire failed: %v", err)
	}
	// Recovery restores normal preference.
	b.SetHealthy(1, true)
	if idx, _ := b.AcquireWhere(func(int) bool { return true }); idx != 1 {
		t.Fatalf("healthy replica 1 not preferred, got %d", idx)
	}
}
