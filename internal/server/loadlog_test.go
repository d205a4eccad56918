package server_test

import (
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/repl"
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
// frame to the primary only. The values are sized from
// repl.LoadChunkBytes so the load spans several records.
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
	pad := strings.Repeat("x", repl.LoadChunkBytes/1000)
	if err := cl.Load("t", 1500, func(r int64) string { return fmt.Sprintf("%sv%d", pad, r) }); err != nil {
		t.Fatal(err)
	}
	if n := fetchAll(t, prim.Addr()); n < 3 {
		t.Fatalf("schema and load took %d records, want the load to span at least two", n)
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

// dialWire opens a wire.Conn to the node at addr and completes the
// handshake; a hang fails the test, not the suite.
func dialWire(t *testing.T, addr string) *wire.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
	wc := wire.NewConn(nc)
	if _, err := call(wc, &wire.Hello{Proto: wire.ProtoVersion, PeerID: -1}); err != nil {
		t.Fatal(err)
	}
	return wc
}

// call sends msg and returns the reply.
func call(wc *wire.Conn, msg wire.Message) (wire.Message, error) {
	if err := wc.Send(msg); err != nil {
		return nil, err
	}
	return wc.Recv()
}

// fetchAll reads the whole log of the node at addr through FetchSince
// on a wire.Conn, failing the test on any reply that does not decode,
// and returns the number of records.
func fetchAll(t *testing.T, addr string) int {
	t.Helper()
	wc := dialWire(t, addr)
	var cursor int64
	records := 0
	for {
		reply, err := call(wc, &wire.FetchSince{Version: cursor})
		if err != nil {
			t.Fatalf("FetchSince(%d): %v", cursor, err)
		}
		recs, ok := reply.(*wire.Records)
		if !ok {
			t.Fatalf("FetchSince(%d) answered %+v", cursor, reply)
		}
		if len(recs.Recs) == 0 {
			return records
		}
		records += len(recs.Recs)
		cursor = recs.Recs[len(recs.Recs)-1].Version
	}
}

// TestSMLoadFrameOverBudget: the single-master master commits a Load
// frame larger than repl.LoadChunkBytes as several records, as the
// multi-master engine does. As one record, these rows would not fit a
// FetchSince reply (each costs more there than in the Load frame), so
// no slave could fetch it. Every reply decodes and the slave converges.
func TestSMLoadFrameOverBudget(t *testing.T) {
	servers, cl := startCluster(t, "sm", 2, nil)
	if err := cl.CreateTable("blob"); err != nil {
		t.Fatal(err)
	}
	// ~102 bytes a row in the Load frame (16.3 MB, under MaxFrame) but
	// ~106 as a Records entry (17 MB, over it).
	const rows = 160_000
	value := strings.Repeat("x", 100)
	load := &wire.Load{Table: "blob"}
	load.Rows, load.Values = repl.Rows(rows, func(int64) string { return value })
	if reply, err := call(dialWire(t, servers[0].Addr()), load); err != nil {
		t.Fatal(err)
	} else if _, ok := reply.(*wire.LoadOK); !ok {
		t.Fatalf("Load frame of %d rows answered %+v", rows, reply)
	}
	if n := fetchAll(t, servers[0].Addr()); n < 3 {
		t.Fatalf("schema and load took %d records, want the load cut into several", n)
	}
	waitFor(t, 10*time.Second, "the slave to hold every loaded row", func() bool {
		dump, err := cl.TableDump(1, "blob")
		return err == nil && len(dump) == rows
	})
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
		recs, err := link.FetchSinceInto(nil, cursor, 0)
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
