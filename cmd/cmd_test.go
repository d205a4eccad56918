// Package cmd_test builds the replicadb command and exercises every
// mode end to end: the binary is compiled once into a temporary
// directory and run with representative flags, checking output and
// exit codes. These are the regression tests that keep the user-facing
// entry point of the reproduction working.
package cmd_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/router"
)

var (
	buildOnce sync.Once
	binDir    string
	binPath   string
	buildErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// replicadbBin compiles cmd/replicadb once per test process and
// returns the binary's path.
func replicadbBin(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		if binDir, buildErr = os.MkdirTemp("", "replicadb-test"); buildErr != nil {
			return
		}
		binPath = filepath.Join(binDir, "replicadb")
		cmd := exec.Command("go", "build", "-o", binPath, "./replicadb")
		cmd.Dir = "." // cmd/ directory
		if b, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("build replicadb: %v\n%s", err, b)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binPath
}

// run executes a built binary and returns combined output.
func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", filepath.Base(bin), strings.Join(args, " "), err, out)
	}
	return string(out)
}

// runExpectFailure executes a binary expecting a non-zero exit.
func runExpectFailure(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("%s %s unexpectedly succeeded:\n%s", filepath.Base(bin), strings.Join(args, " "), out)
	}
	return string(out)
}

func TestCommandLineTools(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bin := replicadbBin(t)

	t.Run("predict basic", func(t *testing.T) {
		out := run(t, bin, "predict", "-mix", "tpcw-shopping", "-design", "mm", "-replicas", "4")
		if !strings.Contains(out, "multi-master") || !strings.Contains(out, "throughput") {
			t.Fatalf("output:\n%s", out)
		}
	})

	t.Run("predict capacity plan", func(t *testing.T) {
		out := run(t, bin, "predict", "-mix", "tpcw-ordering", "-design", "sm", "-replicas", "8", "-target", "1000")
		if !strings.Contains(out, "NOT reachable") {
			t.Fatalf("impossible target not reported:\n%s", out)
		}
	})

	t.Run("predict rejects unknown mix", func(t *testing.T) {
		out := runExpectFailure(t, bin, "predict", "-mix", "nope")
		if !strings.Contains(out, "unknown mix") {
			t.Fatalf("output:\n%s", out)
		}
	})

	t.Run("profiledb to predict params handoff", func(t *testing.T) {
		params := filepath.Join(t.TempDir(), "params.json")
		out := run(t, bin, "profile", "-mix", "rubis-bidding", "-out", params)
		if !strings.Contains(out, "L(1) measured") {
			t.Fatalf("output:\n%s", out)
		}
		if _, err := os.Stat(params); err != nil {
			t.Fatal(err)
		}
		out = run(t, bin, "predict", "-params", params, "-design", "mm", "-replicas", "4")
		if !strings.Contains(out, "RUBiS bidding") {
			t.Fatalf("params file did not carry the mix:\n%s", out)
		}
	})

	t.Run("experiments list and quick run", func(t *testing.T) {
		out := run(t, bin, "experiments", "-list")
		for _, id := range []string{"fig6", "fig14", "certifier", "wan", "ablation-hotspot"} {
			if !strings.Contains(out, id) {
				t.Fatalf("-list missing %s:\n%s", id, out)
			}
		}
		out = run(t, bin, "experiments", "-exp", "table2,network")
		if !strings.Contains(out, "TPC-W parameters") || !strings.Contains(out, "Gbit") {
			t.Fatalf("output:\n%s", out)
		}
	})

	t.Run("experiments csv", func(t *testing.T) {
		out := run(t, bin, "experiments", "-exp", "fig6", "-quick", "-format", "csv")
		if !strings.HasPrefix(out, "figure,series,replicas,measured,predicted,rel_error") {
			t.Fatalf("csv output:\n%s", out)
		}
		if len(strings.Split(strings.TrimSpace(out), "\n")) < 9 {
			t.Fatalf("too few csv rows:\n%s", out)
		}
	})

	t.Run("experiments rejects unknown id", func(t *testing.T) {
		out := runExpectFailure(t, bin, "experiments", "-exp", "fig99")
		if !strings.Contains(out, "unknown experiment") {
			t.Fatalf("output:\n%s", out)
		}
	})

	t.Run("replicadb mm with paxos", func(t *testing.T) {
		out := run(t, bin, "-design", "mm", "-replicas", "3", "-paxos",
			"-clients", "4", "-txns", "20")
		if !strings.Contains(out, "all replicas identical") {
			t.Fatalf("convergence not reported:\n%s", out)
		}
		if !strings.Contains(out, "certifier:") || !strings.Contains(out, "certifier leader: replica") {
			t.Fatalf("certifier stats missing:\n%s", out)
		}
	})

	t.Run("replicadb sm", func(t *testing.T) {
		out := run(t, bin, "-design", "sm", "-replicas", "3",
			"-mix", "rubis-bidding", "-clients", "4", "-txns", "20")
		if !strings.Contains(out, "all replicas identical") {
			t.Fatalf("output:\n%s", out)
		}
		if !strings.Contains(out, "certifier:") {
			t.Fatalf("the master's certifier stats missing:\n%s", out)
		}
	})

	t.Run("replicadb sm with paxos", func(t *testing.T) {
		out := run(t, bin, "-design", "sm", "-replicas", "3", "-paxos", "-groupcommit",
			"-mix", "rubis-bidding", "-clients", "4", "-txns", "20")
		if !strings.Contains(out, "all replicas identical") {
			t.Fatalf("convergence not reported:\n%s", out)
		}
		if !strings.Contains(out, "certifier leader: replica") {
			t.Fatalf("the elected master is not reported:\n%s", out)
		}
	})
}

// runExpectUsage executes a binary expecting exit code 2 (flag
// validation failure) and returns combined output.
func runExpectUsage(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("%s %s unexpectedly succeeded:\n%s", filepath.Base(bin), strings.Join(args, " "), out)
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("%s %s: want exit 2, got %v:\n%s", filepath.Base(bin), strings.Join(args, " "), err, out)
	}
	return string(out)
}

// TestReplicadbFlagValidation pins the up-front flag-combination
// checks: invalid invocations exit 2 with a usage message instead of
// failing deep in setup, and the message is the first line printed,
// so no work ran before it.
func TestReplicadbFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bin := replicadbBin(t)
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown design", []string{"-design", "nope"}, "unknown design"},
		{"zero replicas", []string{"-replicas", "0"}, "-replicas must be >= 1"},
		{"unknown mix", []string{"-mix", "nope"}, "unknown mix"},
		{"serve without listen", []string{"serve", "-design", "mm", "-peers", "a:1,b:2"}, "listen address required"},
		{"serve without peers", []string{"serve", "-design", "mm", "-listen", "127.0.0.1:0"}, "requires -peers"},
		{"serve id out of range", []string{"serve", "-design", "mm", "-listen", "127.0.0.1:0", "-peers", "a:1,b:2", "-id", "5"}, "replica id 5 out of range for 2 members"},
		{"bench without servers", []string{"bench", "-design", "mm"}, "requires -servers"},
		{"join with peers", []string{"serve", "-design", "mm", "-listen", "127.0.0.1:0", "-peers", "a:1", "-join", "b:2"}, "mutually exclusive"},
		{"autoscale on joiner", []string{"serve", "-design", "mm", "-listen", "127.0.0.1:0", "-join", "b:2", "-autoscale"}, "on the primary"},
		{"autoscale on replica", []string{"serve", "-design", "mm", "-listen", "127.0.0.1:0", "-peers", "a:1,b:2", "-id", "1", "-autoscale"}, "-autoscale requires"},
		{"autoscale bad bounds", []string{"serve", "-design", "mm", "-listen", "127.0.0.1:0", "-peers", "a:1", "-autoscale", "-min", "3", "-max", "2"}, "min <= max"},
		{"fsync without wal-dir", []string{"serve", "-design", "mm", "-listen", "127.0.0.1:0", "-peers", "a:1", "-fsync"}, "fsync requires a WAL directory"},
		{"serve paxos with join", []string{"serve", "-design", "mm", "-listen", "127.0.0.1:0", "-join", "b:2", "-paxos"}, "elastic join is not supported with a replicated certifier"},
		{"serve paxos with autoscale", []string{"serve", "-design", "mm", "-listen", "127.0.0.1:0", "-peers", "a:1", "-paxos", "-autoscale"}, "not supported with -paxos"},
		{"serve paxos bad elect-timeout", []string{"serve", "-design", "mm", "-listen", "127.0.0.1:0", "-peers", "a:1", "-paxos", "-elect-timeout", "-1s"}, "negative election timeout"},
		{"serve apply-workers removed", []string{"serve", "-design", "mm", "-listen", "127.0.0.1:0", "-peers", "a:1", "-apply-workers", "2"}, "flag provided but not defined: -apply-workers"},
		{"serve groupwindow removed", []string{"serve", "-design", "mm", "-listen", "127.0.0.1:0", "-peers", "a:1", "-groupcommit", "-groupwindow", "1ms"}, "flag provided but not defined: -groupwindow"},
		{"unknown mode", []string{"frobnicate"}, "unknown mode"},
		{"bench json removed", []string{"bench", "-design", "mm", "-servers", "a:1", "-json", "x"}, "flag provided but not defined: -json"},
		{"predict profile unknown design", []string{"predict", "-profile", "-design", "bogus"}, "unknown design"},
		{"predict zero replicas", []string{"predict", "-replicas", "0"}, "-replicas must be >= 1"},
		{"experiments unknown id after a valid one", []string{"experiments", "-exp", "table2,bogus"}, "unknown experiment"},
		{"experiments unknown format", []string{"experiments", "-exp", "table2", "-format", "xml"}, "unknown format"},
		{"experiments bad replica count", []string{"experiments", "-exp", "fig6", "-replicas", "4,0"}, "bad replica count"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := runExpectUsage(t, bin, tc.args...)
			i := strings.Index(out, tc.want)
			if i < 0 {
				t.Fatalf("output missing %q:\n%s", tc.want, out)
			}
			if strings.Contains(out[:i], "\n") {
				t.Fatalf("output before %q shows work ran first:\n%s", tc.want, out)
			}
		})
	}
}

// reservePorts grabs n distinct loopback addresses by binding and
// releasing listeners; the tiny reuse race is acceptable in tests.
func reservePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

// waitReachable polls an address until something accepts or the
// deadline passes.
func waitReachable(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout("tcp", addr, 250*time.Millisecond)
		if err == nil {
			c.Close()
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("server at %s never came up", addr)
}

// statusOut mirrors the fields of `replicadb status -json` the e2e
// tests assert on; unmatched JSON keys are ignored by encoding/json,
// so the report may grow without breaking these tests.
type statusOut struct {
	Design     string `json:"design"`
	Leader     int64  `json:"leader"`
	Epoch      int64  `json:"epoch"`
	MaxApplied int64  `json:"max_applied"`
	Up         int    `json:"replicas_up"`
	Polled     int    `json:"replicas_polled"`
	Replicas   []struct {
		Addr     string `json:"addr"`
		ID       int64  `json:"id"`
		Shard    int64  `json:"shard"`
		Leading  bool   `json:"leading"`
		Applied  int64  `json:"applied"`
		Behind   int64  `json:"versions_behind"`
		LagCount int64  `json:"repl_lag_count"`
		Error    string `json:"error"`
	} `json:"replicas"`
	StageMeanUs map[string]float64 `json:"stage_mean_us"`
}

// statusJSON runs `replicadb status -json` against the given servers
// and decodes the report.
func statusJSON(t *testing.T, bin, servers string, extra ...string) statusOut {
	t.Helper()
	args := append([]string{"status", "-design", "mm", "-servers", servers, "-json"}, extra...)
	out := run(t, bin, args...)
	var rep statusOut
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("status -json did not emit JSON: %v\n%s", err, out)
	}
	return rep
}

// httpGet fetches one debug endpoint from a node's metrics listener.
func httpGet(t *testing.T, url string) (string, string) {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d\n%s", url, resp.StatusCode, body)
	}
	return string(body), resp.Header.Get("Content-Type")
}

// TestReplicadbCrashRecovery is the durability acceptance path across
// OS processes: a 2-replica multi-master cluster serves with WALs, a
// bench drives committed load, replica 1 is SIGKILLed, more commits
// land on the survivor, and the restarted process must announce WAL
// recovery and converge row-for-row with the replica that never died —
// via WAL replay plus FetchSince, with no join/snapshot transfer (the
// restarted invocation uses -id/-peers, which has no snapshot path).
func TestReplicadbCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bin := replicadbBin(t)
	addrs := reservePorts(t, 2)
	peers := strings.Join(addrs, ",")
	walDirs := []string{t.TempDir(), t.TempDir()}

	logDir := t.TempDir()
	serve := func(i int, logName string) *exec.Cmd {
		logPath := filepath.Join(logDir, logName)
		logFile, err := os.Create(logPath)
		if err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(bin, "serve",
			"-design", "mm",
			"-id", strconv.Itoa(i),
			"-listen", addrs[i],
			"-peers", peers,
			"-wal-dir", walDirs[i],
			"-fsync")
		cmd.Stdout, cmd.Stderr = logFile, logFile
		if err := cmd.Start(); err != nil {
			t.Fatalf("start replica %d: %v", i, err)
		}
		logFile.Close()
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
		waitReachable(t, addrs[i])
		return cmd
	}
	var procs [2]*exec.Cmd
	for i := range addrs {
		procs[i] = serve(i, fmt.Sprintf("replica%d.log", i))
	}

	run(t, bin, "bench", "-design", "mm", "-servers", peers,
		"-mix", "tpcw-shopping", "-clients", "4", "-txns", "10", "-factor", "500")

	// SIGKILL replica 1: no shutdown hooks, no flush — only the WAL.
	if err := procs[1].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	procs[1].Wait()

	// The survivor keeps committing while replica 1 is down.
	run(t, bin, "bench", "-design", "mm", "-servers", addrs[0],
		"-mix", "tpcw-shopping", "-clients", "2", "-txns", "10", "-factor", "500",
		"-load=false", "-converge=false")

	// Restart replica 1 from its WAL and verify it announces recovery.
	serve(1, "replica1-restarted.log")
	restartLog := filepath.Join(logDir, "replica1-restarted.log")
	deadline := time.Now().Add(10 * time.Second)
	for {
		b, _ := os.ReadFile(restartLog)
		if strings.Contains(string(b), "resumed from WAL at version") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted replica never announced WAL recovery:\n%s", b)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Row-for-row equality across both replicas, checked over the wire
	// after a little more traffic lands on the recovered node too.
	out := run(t, bin, "bench", "-design", "mm", "-servers", peers,
		"-mix", "tpcw-shopping", "-clients", "2", "-txns", "5", "-factor", "500",
		"-load=false")
	if !strings.Contains(out, "all 2 replicas identical") {
		t.Fatalf("post-recovery convergence failed:\n%s", out)
	}
}

// TestReplicadbNetworkedCluster is the acceptance path end to end:
// a 3-replica multi-master cluster as 3 OS processes started via
// `replicadb serve`, a `replicadb bench` client driving a TPC-W mix
// over TCP, convergence verified over the wire, `replicadb status`
// reporting leadership and replication lag, and every node's /metrics
// exposition scraped and validated.
func TestReplicadbNetworkedCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bin := replicadbBin(t)
	ports := reservePorts(t, 6)
	addrs, metricsAddrs := ports[:3], ports[3:]
	peers := strings.Join(addrs, ",")

	var procs []*exec.Cmd
	for i, addr := range addrs {
		cmd := exec.Command(bin, "serve",
			"-design", "mm",
			"-id", strconv.Itoa(i),
			"-listen", addr,
			"-peers", peers,
			"-metrics", metricsAddrs[i])
		if err := cmd.Start(); err != nil {
			t.Fatalf("start replica %d: %v", i, err)
		}
		procs = append(procs, cmd)
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
		waitReachable(t, addr)
	}

	out := run(t, bin, "bench",
		"-design", "mm",
		"-servers", peers,
		"-mix", "tpcw-shopping",
		"-clients", "4", "-txns", "15", "-factor", "500")
	for _, want := range []string{"over TCP", "all 3 replicas identical", "latency: p50="} {
		if !strings.Contains(out, want) {
			t.Fatalf("bench output missing %q:\n%s", want, out)
		}
	}

	// `replicadb status -json` against the live cluster: without Paxos,
	// node 0 hosts certification, every replica has applied the bench's
	// versions, and the commit-to-visible lag histograms have counted
	// remotely applied writesets.
	rep := statusJSON(t, bin, peers)
	if rep.Design != "mm" || rep.Up != 3 || len(rep.Replicas) != 3 {
		t.Fatalf("status = %+v", rep)
	}
	if rep.Leader != 0 {
		t.Fatalf("leader = %d, want the static certifier host 0", rep.Leader)
	}
	if rep.MaxApplied <= 0 {
		t.Fatalf("max_applied = %d after a committed bench", rep.MaxApplied)
	}
	var lagged int
	for _, r := range rep.Replicas {
		if r.Error != "" {
			t.Fatalf("replica %s down: %s", r.Addr, r.Error)
		}
		if r.Behind < 0 || r.Applied <= 0 {
			t.Fatalf("replica %s apply state = %+v", r.Addr, r)
		}
		if r.LagCount > 0 {
			lagged++
		}
	}
	if lagged == 0 {
		t.Fatalf("no replica observed replication lag: %+v", rep.Replicas)
	}
	if len(rep.StageMeanUs) == 0 {
		t.Fatalf("status report missing stage means: %+v", rep)
	}

	// Scrape /metrics from every node and validate the exposition
	// parses; the lag histogram family must exist everywhere and have
	// counted applies on at least one node.
	var scrapedLag float64
	for i, maddr := range metricsAddrs {
		body, ctype := httpGet(t, "http://"+maddr+"/metrics")
		if !strings.HasPrefix(ctype, "text/plain") {
			t.Fatalf("node %d /metrics content-type = %q", i, ctype)
		}
		snap, err := obs.ParseText(strings.NewReader(body))
		if err != nil {
			t.Fatalf("node %d exposition invalid: %v\n%s", i, err, body)
		}
		f := snap.Family("replicadb_replication_lag_seconds")
		if f == nil || f.Type != "histogram" {
			t.Fatalf("node %d lag family = %+v", i, f)
		}
		for _, sm := range f.Samples {
			if sm.Suffix == "_count" {
				scrapedLag += sm.Value
			}
		}
	}
	if scrapedLag == 0 {
		t.Fatal("no node's scraped lag histogram counted an apply")
	}

	// The event journal endpoint answers machine-readable JSON.
	body, ctype := httpGet(t, "http://"+metricsAddrs[0]+"/debug/events")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("/debug/events content-type = %q", ctype)
	}
	if !json.Valid([]byte(body)) {
		t.Fatalf("/debug/events not JSON:\n%s", body)
	}

	// Graceful shutdown on SIGTERM for one replica.
	if err := procs[2].Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- procs[2].Wait() }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("replica 2 did not exit on SIGTERM")
	}
}

// TestReplicadbPaxosLeaderKill is the "kill the leader" recipe from
// the README as a test: a 3-process cluster with `-paxos -wal-dir
// -fsync` elects a certification leader, serves a bench, loses the
// leader to SIGKILL, elects a successor, and keeps serving with the
// two survivors convergent.
func TestReplicadbPaxosLeaderKill(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bin := replicadbBin(t)
	ports := reservePorts(t, 6)
	addrs, metricsAddrs := ports[:3], ports[3:]
	peers := strings.Join(addrs, ",")

	logDir := t.TempDir()
	logPath := func(i int) string { return filepath.Join(logDir, fmt.Sprintf("replica%d.log", i)) }
	var procs [3]*exec.Cmd
	for i, addr := range addrs {
		logFile, err := os.Create(logPath(i))
		if err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(bin, "serve",
			"-design", "mm",
			"-id", strconv.Itoa(i),
			"-listen", addr,
			"-peers", peers,
			"-metrics", metricsAddrs[i],
			"-paxos",
			"-elect-timeout", "300ms",
			"-wal-dir", t.TempDir(),
			"-fsync")
		cmd.Stdout, cmd.Stderr = logFile, logFile
		if err := cmd.Start(); err != nil {
			t.Fatalf("start replica %d: %v", i, err)
		}
		logFile.Close()
		procs[i] = cmd
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
		waitReachable(t, addr)
	}

	// One process must announce leadership.
	leaderOf := func(skip int) int {
		start := time.Now()
		deadline := start.Add(15 * time.Second)
		for time.Now().Before(deadline) {
			for i := range procs {
				if i == skip {
					continue
				}
				b, _ := os.ReadFile(logPath(i))
				if strings.Contains(string(b), "this node leads certification") {
					return i
				}
			}
			time.Sleep(50 * time.Millisecond)
		}
		var logs strings.Builder
		for i := range procs {
			if i == skip {
				continue
			}
			b, _ := os.ReadFile(logPath(i))
			fmt.Fprintf(&logs, "--- replica %d log, last lines ---\n%s\n", i, lastLines(string(b), 20))
		}
		t.Fatalf("no process announced certification leadership after %s\n%s",
			time.Since(start).Round(time.Millisecond), logs.String())
		return -1
	}
	lead := leaderOf(-1)

	run(t, bin, "bench", "-design", "mm", "-servers", peers,
		"-mix", "tpcw-shopping", "-clients", "4", "-txns", "10", "-factor", "500")

	// SIGKILL the leader: no shutdown hooks — the survivors must elect.
	if err := procs[lead].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	procs[lead].Wait()
	// Truncating nothing: the old leader's log keeps its banner, so scan
	// only the survivors for a fresh leadership announcement.
	newLead := leaderOf(lead)
	if newLead == lead {
		t.Fatalf("dead leader %d announced leadership again", lead)
	}

	var survivors []string
	for i, a := range addrs {
		if i != lead {
			survivors = append(survivors, a)
		}
	}
	out := run(t, bin, "bench", "-design", "mm", "-servers", strings.Join(survivors, ","),
		"-mix", "tpcw-shopping", "-clients", "4", "-txns", "10", "-factor", "500",
		"-load=false")
	if !strings.Contains(out, "all 2 replicas identical") {
		t.Fatalf("post-failover convergence failed:\n%s", out)
	}

	// `replicadb status -json` against the survivors must report the
	// new leader under a fresh election epoch.
	rep := statusJSON(t, bin, strings.Join(survivors, ","))
	if rep.Up != 2 {
		t.Fatalf("replicas_up = %d after losing one of three, want 2", rep.Up)
	}
	if rep.Leader != int64(newLead) {
		t.Fatalf("status leader = %d, want re-elected node %d", rep.Leader, newLead)
	}
	if rep.Epoch < 1 {
		t.Fatalf("epoch = %d after a re-election, want >= 1", rep.Epoch)
	}
	for _, r := range rep.Replicas {
		if r.Error == "" && r.ID == int64(lead) {
			t.Fatalf("dead leader %d still answering status: %+v", lead, r)
		}
	}

	// The new leader's event journal must have recorded its own
	// election, visible on /debug/events.
	events, ctype := httpGet(t, "http://"+metricsAddrs[newLead]+"/debug/events")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("/debug/events content-type = %q", ctype)
	}
	if !strings.Contains(events, "leader_elected") {
		t.Fatalf("new leader's journal has no leader_elected event:\n%s", events)
	}
}

// lastLines returns the last n lines of s.
func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// TestReplicadbShardedCluster is the horizontal-scaling acceptance
// path across OS processes: two shard groups of two mm replicas each
// (four `replicadb serve -shard i -shards 2` processes with fsync'd
// WALs), fronted in-test by the router over pooled clients. Cross-shard
// transactions commit through 2PC over the wire; `status -json` reports
// each replica's shard; one group's certifier-hosting primary is
// SIGKILLed mid-deployment and restarted from its WAL, after which
// cross-shard commits resume and all four replicas converge.
func TestReplicadbShardedCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bin := replicadbBin(t)
	addrs := reservePorts(t, 4)
	groupAddrs := [][]string{{addrs[0], addrs[1]}, {addrs[2], addrs[3]}}
	walDirs := make([]string, 4)
	for i := range walDirs {
		walDirs[i] = t.TempDir()
	}
	logDir := t.TempDir()

	serve := func(g, i int, logName string) *exec.Cmd {
		logFile, err := os.Create(filepath.Join(logDir, logName))
		if err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(bin, "serve",
			"-design", "mm",
			"-id", strconv.Itoa(i),
			"-listen", groupAddrs[g][i],
			"-peers", strings.Join(groupAddrs[g], ","),
			"-shard", strconv.Itoa(g),
			"-shards", "2",
			"-wal-dir", walDirs[2*g+i],
			"-fsync")
		cmd.Stdout, cmd.Stderr = logFile, logFile
		if err := cmd.Start(); err != nil {
			t.Fatalf("start group %d replica %d: %v", g, i, err)
		}
		logFile.Close()
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
		waitReachable(t, groupAddrs[g][i])
		return cmd
	}
	var procs [2][2]*exec.Cmd
	for g := 0; g < 2; g++ {
		for i := 0; i < 2; i++ {
			procs[g][i] = serve(g, i, fmt.Sprintf("g%dr%d.log", g, i))
		}
	}

	// Router over one pooled client per group — the servers are real
	// processes; only the driver is in-test.
	var groups []router.Group
	for g := 0; g < 2; g++ {
		cl, err := client.New(client.Options{Servers: groupAddrs[g], Design: "mm"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cl.Close)
		groups = append(groups, cl)
	}
	r, err := router.New(1, groups)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.CreateTable("item"); err != nil {
		t.Fatal(err)
	}
	if err := r.Load("item", 64, func(row int64) string {
		return fmt.Sprintf("load-%d", row)
	}); err != nil {
		t.Fatal(err)
	}
	// One owned row per group for the cross-shard pairs.
	rows := map[int]int64{}
	for row := int64(0); row < 64; row++ {
		g := r.Map().Locate("item", row)
		if _, ok := rows[g]; !ok {
			rows[g] = row
		}
	}

	crossCommit := func(tag string) error {
		txn, err := r.BeginUpdate()
		if err != nil {
			return err
		}
		if err := txn.Write("item", rows[0], tag+"-0"); err != nil {
			txn.Abort()
			return err
		}
		if err := txn.Write("item", rows[1], tag+"-1"); err != nil {
			txn.Abort()
			return err
		}
		return txn.Commit()
	}
	for i := 0; i < 5; i++ {
		if err := crossCommit(fmt.Sprintf("pre%d", i)); err != nil {
			t.Fatalf("cross-shard commit %d: %v", i, err)
		}
		// GSI on a multi-master replica does not give read-your-writes:
		// without a Sync the next transaction, writing the same rows, may
		// begin on a replica that has not applied this one and abort.
		r.Sync()
	}

	// The status dashboard reports each replica's shard (wire v6
	// StatsOK.ShardID).
	rep := statusJSON(t, bin, strings.Join(groupAddrs[1], ","))
	for _, row := range rep.Replicas {
		if row.Error == "" && row.Shard != 1 {
			t.Fatalf("group 1 replica %s reports shard %d, want 1", row.Addr, row.Shard)
		}
	}

	// SIGKILL group 1's certifier-hosting primary: its 2PC participant
	// state is only in the WAL now.
	if err := procs[1][0].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	procs[1][0].Wait()

	// A cross-shard transaction against the dead participant must fail
	// cleanly — explicit abort or unknown outcome, never a false ack.
	if err := crossCommit("while-down"); err == nil {
		t.Fatal("cross-shard commit succeeded with group 1's primary dead")
	}

	// Restart the primary from its WAL.
	serve(1, 0, "g1r0-restarted.log")
	restartLog := filepath.Join(logDir, "g1r0-restarted.log")
	deadline := time.Now().Add(10 * time.Second)
	for {
		b, _ := os.ReadFile(restartLog)
		if strings.Contains(string(b), "resumed from WAL at version") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted primary never announced WAL recovery:\n%s", b)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Cross-shard commits resume (the pooled client redials the
	// restarted primary; retry while it settles).
	deadline = time.Now().Add(15 * time.Second)
	for i := 0; ; i++ {
		err := crossCommit(fmt.Sprintf("post%d", i))
		if err == nil && i >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cross-shard commits never resumed: %v", err)
		}
		if err != nil {
			time.Sleep(200 * time.Millisecond)
		}
	}

	// All four replicas converge on the routed state — the aborted
	// while-down fragment must be absent everywhere.
	r.Sync()
	if err := repl.CheckConvergence(r, []string{"item"}); err != nil {
		t.Fatal(err)
	}
	dump, err := r.TableDump(0, "item")
	if err != nil {
		t.Fatal(err)
	}
	for row, v := range dump {
		if strings.HasPrefix(v, "while-down") {
			t.Fatalf("aborted cross-shard fragment leaked at row %d: %q", row, v)
		}
	}
}
