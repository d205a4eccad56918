//go:build !race

package certifier_test

import (
	"testing"

	"repro/internal/certifier"
	"repro/internal/wal"
	"repro/internal/writeset"
)

// TestCertifyAllocs gates the commit path's allocations. Certify is a
// batch of one on stack buffers: without a journal it allocates
// nothing, and a WAL receives the staged log tail without a copy. A
// batch of 8 allocates only its result slice.
func TestCertifyAllocs(t *testing.T) {
	one := writeset.Rows("t", []int64{1}, []string{"x"})
	reqs := make([]certifier.Request, 8)
	for i := range reqs {
		reqs[i].Writeset = writeset.Rows("t", []int64{int64(i)}, []string{"x"})
	}
	cases := []struct {
		name string
		wal  bool
		op   func(c *certifier.Certifier)
		max  float64
	}{
		{"Certify", false, func(c *certifier.Certifier) { _, _ = c.Certify(c.Version(), one) }, 0},
		{"Certify/wal", true, func(c *certifier.Certifier) { _, _ = c.Certify(c.Version(), one) }, 0},
		{"CertifyBatch8/wal", true, func(c *certifier.Certifier) {
			v := c.Version()
			for i := range reqs {
				reqs[i].Snapshot = v
			}
			_, _ = c.CertifyBatch(reqs)
		}, 1},
	}
	for _, tc := range cases {
		c := certifier.New()
		if tc.wal {
			w, _, err := wal.Open(wal.Options{FS: wal.NewMemFS()})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			c.SetJournal(w)
		}
		// Warm the log's backing array and the index.
		for range 64 {
			tc.op(c)
		}
		if got := testing.AllocsPerRun(200, func() { tc.op(c) }); got > tc.max {
			t.Errorf("%s: %.0f allocs per call, want <= %.0f", tc.name, got, tc.max)
		}
	}
}

// openMemWAL returns a write-ahead log on an in-memory file system,
// closed when the test ends.
func openMemWAL(t *testing.T) *wal.WAL {
	t.Helper()
	w, _, err := wal.Open(wal.Options{FS: wal.NewMemFS()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// TestBatcherCertifyAllocs pins the group-commit front end to zero
// allocations: a parked request and its wakeup channel are recycled,
// and the flusher certifies from its own request and result scratch.
func TestBatcherCertifyAllocs(t *testing.T) {
	c := certifier.New()
	c.SetJournal(openMemWAL(t))
	b := certifier.NewBatcher(c, 0)
	one := writeset.Rows("t", []int64{1}, []string{"x"})
	certify := func() {
		if out, err := b.Certify(c.Version(), one); err != nil || !out.Committed {
			t.Fatalf("Certify = %+v, %v", out, err)
		}
	}
	for range 64 {
		certify()
	}
	if got := testing.AllocsPerRun(200, certify); got != 0 {
		t.Errorf("Batcher.Certify: %.2f allocs per call, want 0", got)
	}
}

// TestCertifyGCCycleAllocs pins a steady commit-and-prune cycle — the
// certifier host's life under a horizon that trails the head by a
// fixed lag — to zero allocations: the log slides back over the head
// GC pruned instead of growing a new array.
func TestCertifyGCCycleAllocs(t *testing.T) {
	const lag = 256
	c := certifier.New()
	one := writeset.Rows("t", []int64{1}, []string{"x"})
	cycle := func() {
		if _, err := c.Certify(c.Version(), one); err != nil {
			t.Fatal(err)
		}
		c.GC(c.Version() - lag)
	}
	// Reach the steady state: the log at its lag, its array sized once.
	for range 8 * lag {
		cycle()
	}
	// One measured run of many cycles: AllocsPerRun divides by the run
	// count in integers, which would hide a regrowth every few hundred
	// cycles.
	cycles := func() {
		for range 4 * lag {
			cycle()
		}
	}
	if got := testing.AllocsPerRun(1, cycles); got != 0 {
		t.Errorf("Certify+GC: %.0f allocs in %d cycles, want 0", got, 4*lag)
	}
	if n := c.LogLen(); n != lag {
		t.Fatalf("retained %d records, want %d", n, lag)
	}
}

// TestCertifyGCSteadyStateAllocs pins a steady certify-then-GC cycle
// over a fixed hot key set to zero allocations per certify. Each hot
// row sits on an index page of its own, and GC prunes its version
// before the row is written again: GC zeroes the slot but keeps the
// page, so the next write reuses it instead of allocating a new one.
func TestCertifyGCSteadyStateAllocs(t *testing.T) {
	const keys, lag = 512, 64
	hot := make([]writeset.Writeset, keys)
	for i := range hot {
		table := "a"
		if i%2 == 1 {
			table = "b"
		}
		hot[i] = writeset.Rows(table, []int64{int64(i) * 1000}, []string{"x"})
	}
	c := certifier.New()
	n := 0
	cycle := func() {
		if out, err := c.Certify(c.Version(), hot[n%keys]); err != nil || !out.Committed {
			t.Fatalf("Certify = %+v, %v", out, err)
		}
		n++
		c.GC(c.Version() - lag)
	}
	// Reach the steady state: every hot row written and pruned once.
	for range 4 * keys {
		cycle()
	}
	cycles := func() {
		for range 4 * keys {
			cycle()
		}
	}
	if got := testing.AllocsPerRun(1, cycles); got != 0 {
		t.Errorf("Certify+GC over %d hot rows: %.0f allocs in %d cycles, want 0", keys, got, 4*keys)
	}
	if got := c.IndexSize(); got != lag {
		t.Fatalf("index holds %d keys, want the %d retained", got, lag)
	}
}
