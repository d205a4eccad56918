package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/elastic"
	"repro/internal/workload"
)

// TestStatusModelAtThinkZero pins the population status infers: its
// clients are zero-think bench clients, so 100 tps at 1 ms each is 0.1
// clients by Little's law, not the 100 that the mix's 1 s think implies.
func TestStatusModelAtThinkZero(t *testing.T) {
	p := newStatusPoller(nil, "mm", workload.TPCWShopping())
	defer p.close()
	p.prof.Observe(elastic.Sample{When: time.Unix(0, 0)})
	l, ok := p.prof.Observe(elastic.Sample{When: time.Unix(1, 0), ReadCommits: 100, ReadNs: 100 * 1e6})
	if !ok || math.Abs(l.Clients-0.1) > 1e-9 {
		t.Fatalf("load = %+v (ok %v), want 0.1 clients", l, ok)
	}
}
