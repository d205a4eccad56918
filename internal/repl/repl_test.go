package repl

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/workload"
)

// fakeSystem is a single in-memory map posing as an N-replica system,
// with injectable divergence and abort behaviour for driver tests.
type fakeSystem struct {
	mu       sync.Mutex
	tables   map[string]map[int64]string
	replicas int
	// abortEvery makes every k-th update commit fail once with
	// ErrAborted (0 = never).
	abortEvery int
	updates    int
	// divergeReplica, if >= 0, corrupts TableDump output for that
	// replica so CheckConvergence must notice.
	divergeReplica int
	divergeMode    string // "value" or "missing"
}

func newFake(replicas int) *fakeSystem {
	return &fakeSystem{
		tables:         map[string]map[int64]string{},
		replicas:       replicas,
		divergeReplica: -1,
	}
}

func (f *fakeSystem) CreateTable(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.tables[name]; ok {
		return fmt.Errorf("fake: table %q exists", name)
	}
	f.tables[name] = map[int64]string{}
	return nil
}

func (f *fakeSystem) Load(table string, rows int, value func(int64) string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	t, ok := f.tables[table]
	if !ok {
		return fmt.Errorf("fake: no table %q", table)
	}
	for i := int64(0); i < int64(rows); i++ {
		t[i] = value(i)
	}
	return nil
}

type fakeTxn struct {
	sys      *fakeSystem
	readOnly bool
	writes   []struct {
		table string
		row   int64
		val   string
	}
	done bool
}

func (f *fakeSystem) BeginRead() (Txn, error)   { return &fakeTxn{sys: f, readOnly: true}, nil }
func (f *fakeSystem) BeginUpdate() (Txn, error) { return &fakeTxn{sys: f}, nil }
func (f *fakeSystem) Sync()                     {}
func (f *fakeSystem) Replicas() int             { return f.replicas }

func (f *fakeSystem) TableDump(replica int, table string) (map[int64]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	t, ok := f.tables[table]
	if !ok {
		return nil, fmt.Errorf("fake: no table %q", table)
	}
	out := make(map[int64]string, len(t))
	for k, v := range t {
		out[k] = v
	}
	if replica == f.divergeReplica && len(out) > 0 {
		for k := range out {
			switch f.divergeMode {
			case "missing":
				delete(out, k)
			default:
				out[k] = "CORRUPT"
			}
			break
		}
	}
	return out, nil
}

func (t *fakeTxn) Read(table string, row int64) (string, bool, error) {
	t.sys.mu.Lock()
	defer t.sys.mu.Unlock()
	tab, ok := t.sys.tables[table]
	if !ok {
		return "", false, fmt.Errorf("fake: no table %q", table)
	}
	v, ok := tab[row]
	return v, ok, nil
}

func (t *fakeTxn) Write(table string, row int64, value string) error {
	if t.readOnly {
		return ErrReadOnlyTxn
	}
	t.writes = append(t.writes, struct {
		table string
		row   int64
		val   string
	}{table, row, value})
	return nil
}

func (t *fakeTxn) Delete(table string, row int64) error {
	return t.Write(table, row, "")
}

func (t *fakeTxn) Commit() error {
	if t.done {
		return errors.New("fake: txn done")
	}
	t.done = true
	t.sys.mu.Lock()
	defer t.sys.mu.Unlock()
	if len(t.writes) > 0 {
		t.sys.updates++
		if t.sys.abortEvery > 0 && t.sys.updates%t.sys.abortEvery == 0 {
			return fmt.Errorf("%w: injected", ErrAborted)
		}
	}
	for _, w := range t.writes {
		if tab, ok := t.sys.tables[w.table]; ok {
			tab[w.row] = w.val
		}
	}
	return nil
}

func (t *fakeTxn) Abort() { t.done = true }

func TestLoadCatalogCreatesAndFills(t *testing.T) {
	f := newFake(2)
	cat := workload.TPCWCatalog()
	if err := LoadCatalog(f, cat, 1000); err != nil {
		t.Fatal(err)
	}
	for name, rows := range cat.Tables {
		want := rows / 1000
		if want < 10 {
			want = 10
		}
		got := len(f.tables[name])
		if got != want {
			t.Errorf("table %q: %d rows, want %d", name, got, want)
		}
	}
}

func TestLoadCatalogFactorClamps(t *testing.T) {
	f := newFake(1)
	cat := workload.RUBiSCatalog()
	if err := LoadCatalog(f, cat, 0); err != nil { // factor < 1 behaves as 1
		t.Fatal(err)
	}
	if len(f.tables["items"]) != cat.Tables["items"] {
		t.Errorf("factor 0 should load full size")
	}
}

// TestLoadValueMatchesFormat: the concatenated load value is byte for
// byte the "%s-row-%d" form that load checks (bench's loadValue) expect.
func TestLoadValueMatchesFormat(t *testing.T) {
	for _, r := range []int64{0, 9, 1 << 40} {
		if got, want := loadValue("items", r), fmt.Sprintf("%s-row-%d", "items", r); got != want {
			t.Errorf("loadValue(items, %d) = %q, want %q", r, got, want)
		}
	}
}

func TestDriveCommitsExactly(t *testing.T) {
	f := newFake(1)
	cat := workload.TPCWCatalog()
	if err := LoadCatalog(f, cat, 1000); err != nil {
		t.Fatal(err)
	}
	res := Drive(f, cat, workload.TPCWShopping(), 4, 25, 1000, 3)
	if res.Commits != 100 {
		t.Fatalf("commits = %d", res.Commits)
	}
	if res.ReadCommits+res.UpdateCommits != res.Commits {
		t.Fatalf("class split inconsistent: %+v", res)
	}
	if res.Errors != 0 {
		t.Fatalf("errors: %+v", res)
	}
}

func TestDriveRetriesAborts(t *testing.T) {
	f := newFake(1)
	f.abortEvery = 3 // every third update commit aborts once
	cat := workload.TPCWCatalog()
	if err := LoadCatalog(f, cat, 1000); err != nil {
		t.Fatal(err)
	}
	mix := workload.TPCWOrdering() // plenty of updates
	res := Drive(f, cat, mix, 2, 50, 1000, 5)
	if res.Commits != 100 {
		t.Fatalf("commits = %d (aborts must be retried to completion)", res.Commits)
	}
	if res.Aborts == 0 {
		t.Fatal("injected aborts not observed")
	}
	if res.Errors != 0 {
		t.Fatalf("errors: %+v", res)
	}
}

func TestDriveUpdateFractionTracksMix(t *testing.T) {
	f := newFake(1)
	cat := workload.RUBiSCatalog()
	if err := LoadCatalog(f, cat, 1000); err != nil {
		t.Fatal(err)
	}
	mix := workload.RUBiSBidding()
	res := Drive(f, cat, mix, 4, 250, 1000, 11)
	frac := float64(res.UpdateCommits) / float64(res.Commits)
	if frac < 0.15 || frac > 0.25 {
		t.Fatalf("update fraction %.3f, want about %.2f", frac, mix.Pw)
	}
}

func TestCheckConvergencePasses(t *testing.T) {
	f := newFake(3)
	f.CreateTable("t")
	f.Load("t", 10, func(i int64) string { return "v" })
	if err := CheckConvergence(f, []string{"t"}); err != nil {
		t.Fatal(err)
	}
}

func TestCheckConvergenceDetectsValueDivergence(t *testing.T) {
	f := newFake(3)
	f.CreateTable("t")
	f.Load("t", 10, func(i int64) string { return "v" })
	f.divergeReplica = 2
	f.divergeMode = "value"
	if err := CheckConvergence(f, []string{"t"}); err == nil {
		t.Fatal("value divergence not detected")
	}
}

func TestCheckConvergenceDetectsMissingRows(t *testing.T) {
	f := newFake(2)
	f.CreateTable("t")
	f.Load("t", 10, func(i int64) string { return "v" })
	f.divergeReplica = 1
	f.divergeMode = "missing"
	if err := CheckConvergence(f, []string{"t"}); err == nil {
		t.Fatal("missing-row divergence not detected")
	}
}

func TestCheckConvergenceUnknownTable(t *testing.T) {
	f := newFake(2)
	if err := CheckConvergence(f, []string{"ghost"}); err == nil {
		t.Fatal("unknown table accepted")
	}
}
