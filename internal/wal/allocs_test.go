//go:build !race

// The race detector makes sync.Pool drop items at random, so these
// allocation gates run only in non-race builds.

package wal

import (
	"testing"

	"repro/internal/certifier"
)

// TestWALAppendAllocs pins the commit-path appends to zero allocations
// on the production filesystem: each frames its records in place in a
// pooled buffer and writes it once.
func TestWALAppendAllocs(t *testing.T) {
	w, _, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	batch := []certifier.Record{
		{Version: 1, Writeset: ws("item", 7, "stock=91 qty=3")},
		{Version: 2, Writeset: ws("orders", 8, "status=shipped")},
	}
	apply := ws("item", 7, "stock=91 qty=3")
	version := int64(0)
	for _, c := range []struct {
		name string
		op   func() error
	}{
		// The certifier's call: each frames fresh versions.
		{"Append", func() error {
			version += 2
			batch[0].Version, batch[1].Version = version-1, version
			_, err := w.Append(batch)
			return err
		}},
		// The apply path's journal call, as sidb's hook makes it.
		{"AppendRecord", func() error { version++; return w.AppendRecord(apply, version) }},
		{"AppendRecord/held", func() error { return w.AppendRecord(apply, version) }},
	} {
		for i := 0; i < 10; i++ { // warm the buffer pool
			if err := c.op(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = c.op() }); allocs != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", c.name, allocs)
		}
	}
	if err := w.Sync(w.Seq()); err != nil {
		t.Fatal(err)
	}
}
