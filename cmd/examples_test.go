package cmd_test

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestExamples builds and runs the examples that boot a live cluster
// of replica servers, checking that each exits 0 and prints its
// convergence or audit verdict.
func TestExamples(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs examples; skipped in -short mode")
	}
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		want []string
	}{
		{"live-cluster", []string{
			"stops; commits must continue",
			"convergence check across the 3 surviving replicas... ok",
		}},
		{"auction-invariants", []string{
			"integrity audit passed on every replica",
			"identical on all 4 replicas",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bin := filepath.Join(dir, tc.name)
			build := exec.Command("go", "build", "-o", bin, "../examples/"+tc.name)
			if out, err := build.CombinedOutput(); err != nil {
				t.Fatalf("build: %v\n%s", err, out)
			}
			out := run(t, bin)
			for _, w := range tc.want {
				if !strings.Contains(out, w) {
					t.Fatalf("output missing %q:\n%s", w, out)
				}
			}
		})
	}
}
