package client

import (
	"net"
	"testing"

	"repro/internal/certifier"
)

// TestFetchSinceOnceMovesGuess: FetchSinceOnce asks the current leader
// guess exactly once. Against a dead guess it fails without trying the
// rest of the ring, moves the guess to the next member, and the next
// call reaches the live node there.
func TestFetchSinceOnceMovesGuess(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()
	live := fakeServer(t)

	r := NewLeaderRing([]string{dead, live}, "mm", -1)
	t.Cleanup(r.Close)
	if _, err := r.FetchSinceOnce(0, 0, func([]certifier.Record) {}); err == nil {
		t.Fatal("fetch from a dead guess succeeded")
	}
	if got := r.LeaderAddr(); got != live {
		t.Fatalf("guess after a failed fetch = %s, want the next member %s", got, live)
	}
	if _, err := r.FetchSinceOnce(0, 0, func([]certifier.Record) {}); err != nil {
		t.Fatalf("fetch from the live member: %v", err)
	}
	if got := r.LeaderAddr(); got != live {
		t.Fatalf("guess after a successful fetch = %s, want it kept at %s", got, live)
	}
}
