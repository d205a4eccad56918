package launch

import (
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/elastic"
	"repro/internal/server"
)

// TestStartPublishesMembers: the primary of a group started without
// Paxos answers Members with every replica's address, so a live-model
// source seeded with the primary alone samples the whole group.
func TestStartPublishesMembers(t *testing.T) {
	c, err := Start(1, 3, server.Options{Design: "mm"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	primary := c.Addrs(0)[0]

	link := client.NewLink(primary, "mm", -1, 0)
	defer link.Close()
	_, members, err := link.Members()
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 3 {
		t.Fatalf("primary lists %d members, want 3: %+v", len(members), members)
	}
	for _, m := range members {
		if m.Addr != c.Addrs(0)[m.ID] {
			t.Fatalf("member %d published at %q, want %q", m.ID, m.Addr, c.Addrs(0)[m.ID])
		}
	}

	src := elastic.NewWireSource([]string{primary}, time.Second)
	defer src.Close()
	s, _, err := src.Sample()
	if err != nil {
		t.Fatal(err)
	}
	if s.Members != 3 {
		t.Fatalf("source seeded with the primary counts %d members, want 3", s.Members)
	}
}
