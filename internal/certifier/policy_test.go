package certifier

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/codec"
)

// policyJournal is a TxnJournal whose writes or syncs fail on demand.
type policyJournal struct {
	appendErr, syncErr error
	writes, syncs      int
}

func (j *policyJournal) write() (int64, error) {
	j.writes++
	return int64(j.writes), j.appendErr
}

func (j *policyJournal) Append([]Record) (int64, error)            { return j.write() }
func (j *policyJournal) AppendPrepare(PreparedTxn) (int64, error)  { return j.write() }
func (j *policyJournal) AppendForget([]codec.TxnID) (int64, error) { return j.write() }
func (j *policyJournal) AppendDecision(codec.TxnID, bool, int64, []Record, []codec.TxnID) (int64, error) {
	return j.write()
}

func (j *policyJournal) Sync(int64) error {
	j.syncs++
	return j.syncErr
}

// journaled returns an empty unreplicated certifier journaling to j,
// attached the one way a journal is: by Restore.
func journaled(t *testing.T, j Journal) *Certifier {
	t.Helper()
	c, err := Restore(&Replay{}, 0, j)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestJournalPolicy pins the one journal policy every journaled
// operation follows. The journal is the durability authority: a failed
// write refuses and applies nothing, and a failed sync reports the
// outcome unknown and keeps any record withheld from Since. (A
// replicated certifier has no journal: its acceptors' votes are its
// log.)
func TestJournalPolicy(t *testing.T) {
	ops := []struct {
		name string
		// setup runs before the journal starts failing.
		setup func(c *Certifier) error
		run   func(c *Certifier) error
		// applied reports whether the operation took effect.
		applied func(c *Certifier) bool
		// records: the operation commits records, which a failed sync
		// must withhold.
		records bool
	}{
		{
			name: "Certify",
			run: func(c *Certifier) error {
				_, err := c.Certify(0, ws(1))
				return err
			},
			applied: func(c *Certifier) bool { return c.Version() == 1 },
			records: true,
		},
		{
			name: "CertifyBatch",
			run: func(c *Certifier) error {
				_, err := c.CertifyBatch([]Request{{Writeset: ws(1)}, {Writeset: ws(2)}})
				return err
			},
			applied: func(c *Certifier) bool { return c.Version() == 2 },
			records: true,
		},
		{
			name: "Prepare",
			run: func(c *Certifier) error {
				_, _, err := c.Prepare(prep(tid("t"), 0, 3))
				return err
			},
			applied: func(c *Certifier) bool { return len(c.InDoubt()) == 1 },
		},
		{
			name: "Decide(commit)",
			setup: func(c *Certifier) error {
				_, _, err := c.Prepare(prep(tid("t"), 0, 3))
				return err
			},
			run: func(c *Certifier) error {
				_, err := c.Decide(tid("t"), true)
				return err
			},
			applied: func(c *Certifier) bool {
				_, decided := c.Decided(tid("t"))
				return decided && len(c.InDoubt()) == 0
			},
			records: true,
		},
		{
			name: "Forget",
			setup: func(c *Certifier) error {
				if _, _, err := c.Prepare(prep(tid("t"), 0, 3)); err != nil {
					return err
				}
				_, err := c.Decide(tid("t"), true)
				return err
			},
			run: func(c *Certifier) error { return c.Forget(tid("t")) },
			applied: func(c *Certifier) bool {
				_, decided := c.Decided(tid("t"))
				return !decided
			},
		},
	}
	failures := []struct {
		name string
		fail func(j *policyJournal)
	}{
		{"append fails", func(j *policyJournal) { j.appendErr = errors.New("disk full") }},
		{"sync fails", func(j *policyJournal) { j.syncErr = errors.New("fsync failed") }},
	}
	for _, op := range ops {
		for _, f := range failures {
			t.Run(op.name+"/unreplicated/"+f.name, func(t *testing.T) {
				j := &policyJournal{}
				c := journaled(t, j)
				if op.setup != nil {
					if err := op.setup(c); err != nil {
						t.Fatalf("setup: %v", err)
					}
				}
				before := len(c.Since(0))
				f.fail(j)
				err := op.run(c)
				if f.name == "append fails" {
					if err == nil {
						t.Fatal("journal write failure not reported")
					}
					if op.applied(c) {
						t.Fatal("operation applied although its journal write failed")
					}
					if len(c.Since(0)) != before {
						t.Fatal("log changed although the journal write failed")
					}
					return
				}
				if err == nil || !strings.Contains(err.Error(), "outcome unknown") {
					t.Fatalf("err = %v, want an outcome-unknown error", err)
				}
				if op.records && len(c.Since(0)) != before {
					t.Fatalf("record of unknown durability served: %+v", c.Since(0))
				}
			})
		}
	}
}

// plainJournal is a Journal without the 2PC extension.
type plainJournal struct{ appends, syncs int }

func (j *plainJournal) Append([]Record) (int64, error) {
	j.appends++
	return int64(j.appends), nil
}

func (j *plainJournal) Sync(int64) error {
	j.syncs++
	return nil
}

// TestPlainJournalSkipsTwoPCEntries: a journal that cannot record
// prepares and forgets gets no entry and no sync for them; a commit
// decision still journals and syncs its record.
func TestPlainJournalSkipsTwoPCEntries(t *testing.T) {
	j := &plainJournal{}
	c := journaled(t, j)
	if vote, _, err := c.Prepare(prep(tid("t"), 0, 3)); err != nil || !vote {
		t.Fatalf("prepare: %v %v", vote, err)
	}
	if j.appends != 0 || j.syncs != 0 {
		t.Fatalf("prepare reached a plain journal: %d appends, %d syncs", j.appends, j.syncs)
	}
	if _, err := c.Decide(tid("t"), true); err != nil {
		t.Fatal(err)
	}
	if j.appends != 1 || j.syncs != 1 {
		t.Fatalf("commit decision: %d appends, %d syncs, want 1 and 1", j.appends, j.syncs)
	}
	if err := c.Forget(tid("t")); err != nil {
		t.Fatal(err)
	}
	if j.appends != 1 || j.syncs != 1 {
		t.Fatalf("forget reached a plain journal: %d appends, %d syncs", j.appends, j.syncs)
	}
}
