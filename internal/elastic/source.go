package elastic

import (
	"errors"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/wire"
)

// Row is one replica's answer to a poll: its Stats counters, or the
// error that stood in for them.
type Row struct {
	Addr  string
	Stats *wire.StatsOK // nil when Err is set
	Err   error
}

// WireSource samples a networked cluster over pooled links. Each
// sample asks the first seed that answers Members for the current
// membership, polls the seeds and every member with an address, and
// sums the counters of each (shard, replica) once — a seed that is
// also a member under another address is not counted twice. When no
// seed answers Members the seeds alone are polled. A replica that
// fails to answer is skipped: its counters simply don't move this
// window, and the cohort change makes the profiler discard it. Links
// to departed members are closed lazily.
type WireSource struct {
	seeds       []string
	dialTimeout time.Duration

	mu    sync.Mutex
	links map[string]*client.Link
}

// NewWireSource creates a source polling the cluster reachable from
// the seed addresses.
func NewWireSource(seeds []string, dialTimeout time.Duration) *WireSource {
	return &WireSource{
		seeds:       seeds,
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

var errNoReplica = errors.New("elastic: no replica answered")

// Sample implements Source: the summed counters and one row per polled
// address (seeds first, then members in the order Members lists
// them). It fails only when no replica answered.
func (s *WireSource) Sample() (Sample, []Row, error) {
	addrs := slices.Clone(s.seeds)
	for _, seed := range s.seeds {
		_, members, err := s.linkFor(seed).Members()
		if err != nil {
			continue
		}
		for _, m := range members {
			if m.Addr != "" && !slices.Contains(addrs, m.Addr) {
				addrs = append(addrs, m.Addr)
			}
		}
		break
	}
	out := Sample{When: time.Now()}
	rows := make([]Row, 0, len(addrs))
	type replica struct{ shard, id int64 }
	seen := make(map[replica]bool, len(addrs))
	polled := make([]string, 0, len(addrs))
	for _, addr := range addrs {
		st, err := s.linkFor(addr).Stats()
		if err != nil {
			rows = append(rows, Row{Addr: addr, Err: err})
			continue
		}
		key := replica{st.ShardID, st.ReplicaID}
		if seen[key] {
			continue
		}
		seen[key] = true
		rows = append(rows, Row{Addr: addr, Stats: st})
		polled = append(polled, addr)
		out.Add(st)
	}
	sort.Strings(polled)
	out.Cohort = strings.Join(polled, ",")
	// Drop links to members that are gone.
	s.mu.Lock()
	for addr, l := range s.links {
		if !slices.Contains(addrs, addr) {
			l.Close()
			delete(s.links, addr)
		}
	}
	s.mu.Unlock()
	if len(polled) == 0 {
		return Sample{}, rows, errNoReplica
	}
	return out, rows, nil
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
