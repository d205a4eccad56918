package server_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/wire"
)

// pendingJoiner runs the join protocol (admission and snapshot) but
// does not Start the node, so it sits between Join and its first long
// poll until the caller starts it.
func pendingJoiner(t *testing.T, primary string) *server.Server {
	t.Helper()
	srv, err := server.New(server.Options{Design: "mm", Listen: "127.0.0.1:0", Join: true, Primary: primary})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// dumpOf reads one table from the server at addr.
func dumpOf(t *testing.T, addr, table string) map[int64]string {
	t.Helper()
	cl, err := client.New(client.Options{Servers: []string{addr}, Design: "mm"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	rows, err := cl.TableDump(0, table)
	if err != nil {
		return nil
	}
	return rows
}

// waitEqual waits until the joiner holds the primary's table row for
// row.
func waitEqual(t *testing.T, primary, joiner, table string) {
	t.Helper()
	want := dumpOf(t, primary, table)
	waitFor(t, 10*time.Second, "the joiner to equal the primary", func() bool {
		return reflect.DeepEqual(dumpOf(t, joiner, table), want)
	})
}

// TestSchemaAndLoadDuringAdmission: a table created and loaded while
// a joiner sits between Join and its first long poll reaches the joiner
// through the log — the client, which never saw the joiner, sends each
// frame to the primary only.
func TestSchemaAndLoadDuringAdmission(t *testing.T) {
	prim := startPrimary(t, nil)
	joiner := pendingJoiner(t, prim.Addr())
	cl, err := client.New(client.Options{Servers: []string{prim.Addr()}, Design: "mm"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.CreateTable("t"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Load("t", 1500, func(r int64) string { return fmt.Sprintf("v%d", r) }); err != nil {
		t.Fatal(err)
	}
	if err := cl.CreateTable("t"); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("duplicate table: %v, want the primary to refuse it", err)
	}
	joiner.Start()
	waitEqual(t, prim.Addr(), joiner.Addr(), "t")
	if n := len(dumpOf(t, joiner.Addr(), "t")); n != 1500 {
		t.Fatalf("joiner holds %d rows, want 1500", n)
	}
}

// TestFetchSinceBoundsReplies: a backlog larger than wire.MaxFrame —
// a full load behind a joiner — is served in several bounded replies,
// and the joiner catches up through them.
func TestFetchSinceBoundsReplies(t *testing.T) {
	prim := startPrimary(t, nil)
	joiner := pendingJoiner(t, prim.Addr())
	cl, err := client.New(client.Options{Servers: []string{prim.Addr()}, Design: "mm"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.CreateTable("blob"); err != nil {
		t.Fatal(err)
	}
	value := strings.Repeat("x", 16<<10)
	const rows = 1100 // ~17.6 MiB of values
	if rows*len(value) <= wire.MaxFrame {
		t.Fatal("backlog does not exceed MaxFrame")
	}
	if err := cl.Load("blob", rows, func(int64) string { return value }); err != nil {
		t.Fatal(err)
	}

	link := client.NewLink(prim.Addr(), "mm", -1, time.Second)
	defer link.Close()
	var cursor int64
	fetches, loaded := 0, 0
	for {
		recs, err := link.FetchSince(cursor, 0)
		if err != nil {
			t.Fatalf("fetch %d: %v", fetches, err)
		}
		if len(recs) == 0 {
			break
		}
		fetches++
		for _, r := range recs {
			loaded += len(r.Writeset.Entries)
		}
		cursor = recs[len(recs)-1].Version
	}
	if loaded != rows+1 { // the rows plus the schema record's tombstone
		t.Fatalf("fetched %d entries, want %d", loaded, rows+1)
	}
	if fetches < 2 {
		t.Fatalf("backlog served in %d fetch(es), want several", fetches)
	}

	joiner.Start()
	waitEqual(t, prim.Addr(), joiner.Addr(), "blob")
}
