package cluster

import (
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

// startClient launches one closed-loop client process: think, submit a
// transaction, wait for commit, repeat. Aborted update transactions
// are retried immediately with a fresh snapshot, as the paper's Java
// servlets do; the response time of a committed transaction spans all
// its attempts.
func (s *system) startClient(rng *stats.Rand) {
	m := s.cfg.Mix
	var cycle func()
	cycle = func() {
		s.sim.After(rng.Exp(m.Think), func() {
			isUpdate := m.Pw > 0 && rng.Bernoulli(m.Pw)
			start := s.sim.Now()
			s.submit(rng, isUpdate, start, cycle)
		})
	}
	cycle()
}

// startOpenLoop launches a Poisson arrival source: each arrival is an
// independent transaction with no think loop behind it. The offered
// rate must stay below system capacity or the backlog grows without
// bound, which is exactly the contrast with closed-loop clients the
// open-vs-closed ablation demonstrates.
func (s *system) startOpenLoop(rng *stats.Rand) {
	m := s.cfg.Mix
	var arrive func()
	arrive = func() {
		s.sim.After(rng.Exp(1/s.cfg.OpenLoopRate), func() {
			isUpdate := m.Pw > 0 && rng.Bernoulli(m.Pw)
			s.submit(rng, isUpdate, s.sim.Now(), func() {})
			arrive()
		})
	}
	arrive()
}

// submit runs one transaction attempt chain until commit, then calls
// done.
func (s *system) submit(rng *stats.Rand, isUpdate bool, start float64, done func()) {
	target := s.route(isUpdate)
	target.outstanding++
	finish := func(committed bool) {
		target.outstanding--
		if !committed {
			// Retry on a freshly routed replica without thinking.
			if s.measuring {
				s.retries++
			}
			s.submit(rng, isUpdate, start, done)
			return
		}
		if s.measuring {
			rt := s.sim.Now() - start
			s.commits++
			s.respAll.Add(rt)
			s.respHist.Record(time.Duration(rt * float64(time.Second)))
			if isUpdate {
				s.updateCommits++
				s.respWrite.Add(rt)
			} else {
				s.readCommits++
				s.respRead.Add(rt)
			}
			target.commits++
		}
		done()
	}

	dispatch := func() {
		if isUpdate {
			s.runUpdate(rng, target, finish)
		} else {
			s.runRead(rng, target, finish)
		}
	}
	if s.cfg.LBDelay > 0 {
		s.sim.After(s.cfg.LBDelay, dispatch)
	} else {
		dispatch()
	}
}

// route picks the replica a transaction executes on: the least-loaded
// replica for multi-master and for single-master reads (master
// included, §5.2), the master for single-master updates, and the only
// node otherwise.
func (s *system) route(isUpdate bool) *node {
	if s.cfg.Design == core.SingleMaster && isUpdate {
		return s.nodes[0]
	}
	best := s.nodes[0]
	for _, n := range s.nodes[1:] {
		if n.outstanding < best.outstanding {
			best = n
		}
	}
	return best
}

// speedOf returns the machine-speed factor of a node: the single
// master can be configured faster than the slaves (§6.2.1 remark).
func (s *system) speedOf(n *node) float64 {
	if s.cfg.Design == core.SingleMaster && n == s.nodes[0] && s.cfg.MasterSpeedup > 1 {
		return s.cfg.MasterSpeedup
	}
	return 1
}

// runRead executes a read-only transaction: CPU then disk with the
// mix's rc demands. Reads never abort under (G)SI.
func (s *system) runRead(rng *stats.Rand, n *node, finish func(bool)) {
	m := s.cfg.Mix
	speed := s.speedOf(n)
	n.cpu.Submit(rng.Exp(m.RC[workload.CPU]/speed), func() {
		n.disk.Submit(rng.Exp(m.RC[workload.Disk]/speed), func() {
			finish(true)
		})
	})
}

// runUpdate executes one update-transaction attempt: take a snapshot
// at the executing replica, execute (CPU then disk with wc demands),
// then certify. Multi-master certification adds the certifier delay
// and checks system-wide write-write conflicts; single-master and
// standalone check locally at the master. On commit the writeset is
// propagated to the other replicas.
func (s *system) runUpdate(rng *stats.Rand, n *node, finish func(bool)) {
	m := s.cfg.Mix
	if s.measuring {
		s.attempts++
	}
	snapshot := n.applied
	rows := s.sampleRows(rng)
	speed := s.speedOf(n)
	n.cpu.Submit(rng.Exp(m.WC[workload.CPU]/speed), func() {
		n.disk.Submit(rng.Exp(m.WC[workload.Disk]/speed), func() {
			certify := func() {
				if s.measuring {
					s.snapLag.Add(float64(s.version - snapshot))
				}
				if s.conflicts(rows, snapshot) {
					if s.measuring {
						s.updateAborts++
					}
					finish(false)
					return
				}
				s.commit(n, rows)
				finish(true)
			}
			if s.cfg.Design == core.MultiMaster && s.cfg.CertDelay > 0 {
				// Group commit amortizes the certifier's logging delay
				// over CertBatch concurrent requests.
				s.sim.After(s.cfg.CertDelay/float64(s.cfg.CertBatch), certify)
			} else {
				certify()
			}
		})
	})
}

// sampleRows draws the distinct rows an update transaction modifies
// from the updatable-row pool.
func (s *system) sampleRows(rng *stats.Rand) []int32 {
	u := s.cfg.Mix.UpdateOps
	pool := s.cfg.HeapTableSize
	if u <= 0 || pool <= 0 {
		return nil
	}
	if u > pool {
		u = pool
	}
	rows := make([]int32, 0, u)
	seen := make(map[int32]struct{}, u)
	for len(rows) < u {
		var r int32
		if s.hotspot != nil {
			r = int32(s.hotspot.Sample(rng))
		} else {
			r = int32(rng.Intn(pool))
		}
		if _, dup := seen[r]; dup {
			continue
		}
		seen[r] = struct{}{}
		rows = append(rows, r)
	}
	return rows
}

// conflicts reports whether any sampled row was written by a
// transaction that committed after the given snapshot
// (first-committer-wins).
func (s *system) conflicts(rows []int32, snapshot int64) bool {
	for _, r := range rows {
		if v, ok := s.lastWriter[r]; ok && v > snapshot {
			return true
		}
	}
	return false
}

// commit installs the transaction's writeset: bump the global version,
// record the rows, make the version visible at the committing node and
// propagate the writeset to every other replica, where applying it
// consumes the ws demands (in commit order, FIFO through each
// station).
func (s *system) commit(n *node, rows []int32) {
	s.version++
	v := s.version
	for _, r := range rows {
		s.lastWriter[r] = v
	}
	if v > n.applied {
		n.applied = v
	}
	m := s.cfg.Mix
	targets := s.propagationTargets(n)
	for _, t := range targets {
		t := t
		t.cpu.Submit(s.rng.Exp(m.WS[workload.CPU]), func() {
			t.disk.Submit(s.rng.Exp(m.WS[workload.Disk]), func() {
				if v > t.applied {
					t.applied = v
				}
				if s.measuring {
					t.writesets++
				}
			})
		})
	}
}

// propagationTargets lists the replicas that must apply a writeset
// committed at n: everyone else in multi-master, the slaves in
// single-master, nobody standalone.
func (s *system) propagationTargets(n *node) []*node {
	switch s.cfg.Design {
	case core.MultiMaster:
		out := make([]*node, 0, len(s.nodes)-1)
		for _, t := range s.nodes {
			if t != n {
				out = append(out, t)
			}
		}
		return out
	case core.SingleMaster:
		return s.nodes[1:]
	default:
		return nil
	}
}
