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
