package elastic

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/wire"
)

// WireSource samples a networked cluster: it asks the primary for the
// current membership, polls every member's Stats counters over pooled
// links, and sums them. Links to departed members are closed lazily.
// A member that fails to answer is skipped — its counters simply
// don't move this window, and the profiler's monotonicity check
// discards the window if the sum regressed.
type WireSource struct {
	primaryAddr string
	dialTimeout time.Duration

	mu    sync.Mutex
	links map[string]*client.Link
}

// NewWireSource creates a source polling the cluster behind the
// primary at addr.
func NewWireSource(primaryAddr string, dialTimeout time.Duration) *WireSource {
	return &WireSource{
		primaryAddr: primaryAddr,
		dialTimeout: dialTimeout,
		links:       make(map[string]*client.Link),
	}
}

func (s *WireSource) linkFor(addr string) *client.Link {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.links[addr]
	if !ok {
		l = client.NewLink(addr, "", -1, s.dialTimeout)
		s.links[addr] = l
	}
	return l
}

// Sample implements Source.
func (s *WireSource) Sample() (Sample, error) {
	_, members, err := s.linkFor(s.primaryAddr).Members()
	if err != nil {
		return Sample{}, fmt.Errorf("elastic: membership poll: %w", err)
	}
	// The primary is polled by its known address; boot-time member
	// records may not carry addresses (pre-elastic configuration).
	addrs := []string{s.primaryAddr}
	for _, m := range members {
		if m.ID != 0 && m.Addr != "" && m.Addr != s.primaryAddr {
			addrs = append(addrs, m.Addr)
		}
	}
	live := make(map[string]bool, len(addrs))
	out := Sample{When: time.Now()}
	polled := make([]string, 0, len(addrs))
	for _, addr := range addrs {
		live[addr] = true
		st, err := s.linkFor(addr).Stats()
		if err != nil {
			continue // excluded from the cohort: the window is discarded
		}
		polled = append(polled, addr)
		out.Add(st)
	}
	sort.Strings(polled)
	out.Cohort = strings.Join(polled, ",")
	// Drop links to members that are gone.
	s.mu.Lock()
	for addr, l := range s.links {
		if !live[addr] {
			l.Close()
			delete(s.links, addr)
		}
	}
	s.mu.Unlock()
	return out, nil
}

// Add folds one replica's Stats counters into the cluster-wide sum
// and counts it as a member. The caller sets Cohort.
func (s *Sample) Add(st *wire.StatsOK) {
	s.ReadCommits += st.ReadCommits
	s.UpdateCommits += st.UpdateCommits
	s.Aborts += st.Aborts
	s.ReadNs += st.ReadNs
	s.UpdateNs += st.UpdateNs
	for i := range s.StageCounts {
		s.StageCounts[i] += st.StageCounts[i]
		s.StageNs[i] += st.StageNs[i]
	}
	s.Members++
}

// Close releases every pooled link.
func (s *WireSource) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for addr, l := range s.links {
		l.Close()
		delete(s.links, addr)
	}
}
