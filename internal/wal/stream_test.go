package wal_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/codec"
	"repro/internal/launch"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/workload"
)

// TestOneRecordPerVersionMM: on a 3-replica multi-master cluster with a
// WAL, fsync and group commit on every node, each node's log holds
// every committed version exactly once, as one writeset frame — the
// certifier host included, whose certifier and database both journal —
// and no frame of the retired apply stream.
func TestOneRecordPerVersionMM(t *testing.T) {
	oneRecordPerVersion(t, server.Options{Design: "mm", GroupCommit: true})
}

// TestOneRecordPerVersionSM: the same on a 3-node single-master
// cluster, where the master's commits and the slaves' applies all
// journal through the database's hook.
func TestOneRecordPerVersionSM(t *testing.T) {
	oneRecordPerVersion(t, server.Options{Design: "sm"})
}

// oneRecordPerVersion loads and drives tpcw-ordering on a launched
// 3-node cluster built from tmpl, then parses every node's segment. It
// logs each node's load bytes and journal bytes per update commit.
func oneRecordPerVersion(t *testing.T, tmpl server.Options) {
	const (
		nodes   = 3
		factor  = 10
		clients = 2
		txns    = 1000
	)
	dir := t.TempDir()
	tmpl.WALDir, tmpl.Fsync = dir, true
	c, err := launch.Start(1, nodes, tmpl)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl := c.Clients[0]
	seg := func(i int) string { return filepath.Join(dir, fmt.Sprintf("g0-r%d", i), wal.SegName) }
	size := func(i int) int64 {
		st, err := os.Stat(seg(i))
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}

	cat := workload.TPCWCatalog()
	if err := repl.LoadCatalog(cl, cat, factor); err != nil {
		t.Fatal(err)
	}
	cl.Sync()
	var loaded [nodes]int64
	for i := range loaded {
		loaded[i] = size(i)
	}
	res := repl.Drive(cl, cat, workload.TPCWOrdering(), clients, txns, factor, 7)
	if res.Errors != 0 || res.UpdateCommits == 0 {
		t.Fatalf("drive: %+v", res)
	}
	cl.Sync()
	stats, err := c.Stats(0)
	if err != nil {
		t.Fatal(err)
	}
	last := stats[0].Applied
	var driven [nodes]int64
	for i := range driven {
		if stats[i].Applied != last {
			t.Fatalf("node %d applied %d, node 0 %d", i, stats[i].Applied, last)
		}
		driven[i] = size(i)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < nodes; i++ {
		data, err := os.ReadFile(seg(i))
		if err != nil {
			t.Fatal(err)
		}
		count := make(map[int64]int)
		for _, f := range wal.Frames(data) {
			switch {
			case f.Kind >= 5 && f.Kind <= 7:
				t.Fatalf("node %d: retired frame kind %d (version %d)", i, f.Kind, f.Version)
			case f.Kind == codec.KindWriteset:
				count[f.Version]++
			}
		}
		for v := int64(1); v <= last; v++ {
			if count[v] != 1 {
				t.Fatalf("node %d: version %d has %d writeset frames, want 1", i, v, count[v])
			}
		}
		if len(count) != int(last) {
			t.Fatalf("node %d: writeset frames for %d versions, %d committed", i, len(count), last)
		}
		t.Logf("%s node %d: load %d bytes, drive %.1f bytes/update (%d updates)", tmpl.Design, i,
			loaded[i], float64(driven[i]-loaded[i])/float64(res.UpdateCommits), res.UpdateCommits)
	}
}
