package client

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestSlotTable pins the least-loaded routing the client keeps in its
// slot table. Each row runs a script over a fresh table: "a" acquires
// the least-loaded slot, "h2" acquires slot 2 as the certifier host,
// "r1" releases slot 1, "d1" retires slot 1 (its replica departed),
// "x1" puts slot 1's pool into backoff and "u1" ends it, and "j"
// admits a joiner. want lists the slot each acquisition gets, -1 when
// none can be had; panics marks a row whose last op must panic.
func TestSlotTable(t *testing.T) {
	rows := []struct {
		name   string
		slots  int
		ops    string
		want   []int
		panics bool
	}{
		{name: "least loaded", slots: 3, ops: "a a a a r1 a", want: []int{0, 1, 2, 0, 1}},
		{
			// Ties go to the first slot scanned from a cursor that
			// advances once per pick, so a release replays exactly.
			name: "rotation is deterministic", slots: 3,
			ops:  "a a a a r0 a a a a",
			want: []int{0, 1, 2, 0, 1, 2, 0, 1},
		},
		{
			// Each round holds one transaction on every survivor, so
			// each takes exactly one: slot 0 gets no more than slot 3.
			name: "ties rotate past a departed slot", slots: 4,
			ops:  "d1 a a a r0 r2 r3 a a a r0 r2 r3 a a a",
			want: []int{0, 2, 3, 3, 0, 2, 2, 3, 0},
		},
		{
			name: "departed slot never acquired", slots: 3,
			ops:  "a d0 a a a a r0 d1 d2 a h0",
			want: []int{0, 1, 2, 1, 2, -1, -1},
		},
		{
			name: "down slot routed around until all are down", slots: 3,
			ops:  "x1 a a a a x0 x2 a u2 a",
			want: []int{0, 2, 2, 0, 1, 2},
		},
		{name: "joiner takes traffic", slots: 1, ops: "j a a a a", want: []int{0, 1, 0, 1}},
		{
			name: "host slot taken whatever its load or health", slots: 3,
			ops:  "a x2 h2 h2 d1 h1",
			want: []int{0, 2, 2, -1},
		},
		{name: "loads count acquisitions", slots: 2, ops: "a a a r0 r0 r1 r0", want: []int{0, 1, 0}, panics: true},
		{name: "release underflow panics", slots: 1, ops: "r0", panics: true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			c := tableOf(t, row.slots)
			ops := strings.Fields(row.ops)
			var got []int
			for k, op := range ops {
				panicked := runOp(c, op, &got)
				if last := k == len(ops)-1; panicked != (last && row.panics) {
					t.Fatalf("op %d (%s): panicked = %v", k, op, panicked)
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(row.want) {
				t.Fatalf("acquired %v, want %v", got, row.want)
			}
		})
	}
}

// TestNewRefusesNoServers: a client, and so its slot table, is never
// built over zero replicas.
func TestNewRefusesNoServers(t *testing.T) {
	c, err := New(Options{Design: "mm"})
	if err == nil || c != nil {
		t.Fatalf("New with no servers = %v, %v; want nil and an error", c, err)
	}
}

// tableOf returns a client over n replicas nobody listens for; no op
// of the slot table dials.
func tableOf(t *testing.T, n int) *Client {
	t.Helper()
	servers := make([]string, n)
	for i := range servers {
		servers[i] = "replica-" + strconv.Itoa(i)
	}
	c, err := New(Options{Servers: servers, Design: "mm"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// runOp runs one TestSlotTable op, appending what an acquisition got,
// and reports whether it panicked.
func runOp(c *Client, op string, got *[]int) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	i, _ := strconv.Atoi(op[1:])
	switch op[0] {
	case 'a', 'h':
		if op[0] == 'a' {
			i = -1
		}
		idx, _, err := c.acquire(i)
		if err != nil {
			idx = -1
		}
		*got = append(*got, idx)
	case 'r':
		c.release(i)
	case 'd':
		c.rep(i).pool.retire()
	case 'x':
		c.rep(i).pool.until.Store(math.MaxInt64)
	case 'u':
		c.rep(i).pool.until.Store(0)
	case 'j':
		c.mu.Lock()
		c.admit(int64(len(c.reps)), "joiner")
		c.mu.Unlock()
	}
	return false
}

// TestSlotTableConcurrent: concurrent acquires and releases leave
// every load at zero (run it under -race).
func TestSlotTableConcurrent(t *testing.T) {
	c := tableOf(t, 4)
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 1000 {
				idx, _, err := c.acquire(-1)
				if err != nil {
					t.Error(err)
					return
				}
				c.release(idx)
			}
		}()
	}
	wg.Wait()
	for i, r := range c.slots() {
		if r.load != 0 {
			t.Fatalf("slot %d still holds %d transactions", i, r.load)
		}
	}
}
