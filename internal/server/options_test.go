package server_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// TestOptionsValidate pins every rule on server.Options: each bad row
// breaks exactly one rule of a valid base and must fail Validate (and
// New) with that rule's message; each good row must pass. The design
// only picks the update site, so every sm combination below is valid.
func TestOptionsValidate(t *testing.T) {
	mm := server.Options{Design: "mm", Listen: "127.0.0.1:0"}
	sm := server.Options{Design: "sm", Listen: "127.0.0.1:0"}
	members := []string{"a:1", "b:2", "c:3"}
	with := func(base server.Options, tweak func(*server.Options)) server.Options {
		tweak(&base)
		return base
	}

	good := map[string]server.Options{
		"mm primary":                mm,
		"sm master":                 sm,
		"mm replica":                with(mm, func(o *server.Options) { o.ID, o.Primary = 1, "a:1" }),
		"sm slave":                  with(sm, func(o *server.Options) { o.ID, o.Primary = 2, "a:1"; o.Members = members }),
		"mm joiner":                 with(mm, func(o *server.Options) { o.Join, o.Primary = true, "a:1" }),
		"paxos member":              with(mm, func(o *server.Options) { o.ID, o.Paxos, o.Members = 2, true, members }),
		"group commit on host":      with(mm, func(o *server.Options) { o.GroupCommit, o.EagerCert = true, true }),
		"group commit under paxos":  with(mm, func(o *server.Options) { o.ID, o.Paxos, o.Members, o.GroupCommit = 1, true, members, true }),
		"fsync with wal":            with(mm, func(o *server.Options) { o.WALDir, o.Fsync = "/wal", true }),
		"last shard":                with(mm, func(o *server.Options) { o.ShardID, o.ShardCount = 1, 2 }),
		"explicit timeouts":         with(mm, func(o *server.Options) { o.ElectTimeout, o.SlowTxn = time.Second, time.Millisecond }),
		"join on sm":                with(sm, func(o *server.Options) { o.Join, o.Primary = true, "a:1" }),
		"paxos on sm":               with(sm, func(o *server.Options) { o.Paxos, o.Members = true, members }),
		"group commit on sm":        with(sm, func(o *server.Options) { o.GroupCommit = true }),
		"eager certification on sm": with(sm, func(o *server.Options) { o.EagerCert = true }),
		"sharded sm":                with(sm, func(o *server.Options) { o.ShardCount = 2 }),
	}
	for name, o := range good {
		t.Run(name, func(t *testing.T) {
			if err := o.Validate(); err != nil {
				t.Fatalf("Validate = %v, want nil", err)
			}
		})
	}

	bad := []struct {
		name string
		opts server.Options
		want string
	}{
		{"unknown design", with(mm, func(o *server.Options) { o.Design = "nope" }), "unknown design"},
		{"no listen address", with(mm, func(o *server.Options) { o.Listen = "" }), "listen address required"},
		{"negative id", with(mm, func(o *server.Options) { o.ID = -1 }), "negative replica id"},
		{"id beyond members", with(mm, func(o *server.Options) { o.ID, o.Primary, o.Members = 3, "a:1", members }), "out of range for 3 members"},
		{"join without primary", with(mm, func(o *server.Options) { o.Join = true }), "elastic join requires the primary's address"},
		{"paxos with join", with(mm, func(o *server.Options) { o.Paxos, o.Members, o.Join, o.Primary = true, members, true, "a:1" }), "elastic join is not supported with a replicated certifier"},
		{"paxos without members", with(mm, func(o *server.Options) { o.Paxos = true }), "requires the member address list"},
		{"replica without primary", with(mm, func(o *server.Options) { o.ID = 1 }), "requires the primary's address"},
		{"group commit off the host", with(mm, func(o *server.Options) { o.ID, o.Primary, o.GroupCommit = 1, "a:1", true }), "group commit runs only on the certifier host"},
		{"group commit on a joiner", with(mm, func(o *server.Options) { o.Join, o.Primary, o.GroupCommit = true, "a:1", true }), "group commit runs only on the certifier host"},
		{"fsync without wal", with(mm, func(o *server.Options) { o.Fsync = true }), "fsync requires a WAL directory"},
		{"negative shard count", with(mm, func(o *server.Options) { o.ShardCount = -1 }), "negative shard count"},
		{"shard id past count", with(mm, func(o *server.Options) { o.ShardID, o.ShardCount = 2, 2 }), "shard 2 out of range for 2 shard groups"},
		{"shard id unsharded", with(mm, func(o *server.Options) { o.ShardID = 1 }), "shard 1 out of range for 1 shard groups"},
		{"negative shard id", with(mm, func(o *server.Options) { o.ShardID, o.ShardCount = -1, 2 }), "shard -1 out of range"},
		{"negative elect timeout", with(mm, func(o *server.Options) { o.ElectTimeout = -time.Second }), "negative election timeout"},
		{"negative slow threshold", with(mm, func(o *server.Options) { o.SlowTxn = -time.Millisecond }), "negative slow-transaction threshold"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want an error containing %q", err, tc.want)
			}
			srv, newErr := server.New(tc.opts)
			if newErr == nil {
				srv.Close()
				t.Fatal("New accepted options Validate refuses")
			}
			if newErr.Error() != err.Error() {
				t.Fatalf("New = %v, want Validate's %v", newErr, err)
			}
		})
	}
}
