package main_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above test directory")
		}
		dir = parent
	}
}

// TestRepoIsClean is the gate the CI script relies on: the whole module
// must pass every arblint analyzer with zero findings.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs arblint over the whole module")
	}
	root := moduleRoot(t)
	cmd := exec.Command("go", "run", "./cmd/arblint", "./...")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("arblint reported findings (or failed):\n%s\nerror: %v", out, err)
	}
	if len(out) != 0 {
		t.Fatalf("arblint exited zero but produced output:\n%s", out)
	}
}

// TestInterproceduralAnalyzersClean pins the PR-7..9 subsystems
// (vstore snapshots, the coalescer's atomics, server/parallel
// goroutines, the module's mutexes) as clean under the four
// interprocedural analyzers specifically, independent of the rest of
// the suite.
func TestInterproceduralAnalyzersClean(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs arblint over the whole module")
	}
	root := moduleRoot(t)
	cmd := exec.Command("go", "run", "./cmd/arblint",
		"-analyzers", "snappin,atomicmix,goroleak,lockorder", "./...")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("interprocedural analyzers reported findings (or failed):\n%s\nerror: %v", out, err)
	}
}

// TestRosterAndJSON asserts the advertised suite is the full eight and
// that the machine-readable path stays wired: -json with the committed
// baseline must emit an empty JSON array on a clean tree.
func TestRosterAndJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs arblint")
	}
	root := moduleRoot(t)
	cmd := exec.Command("go", "run", "./cmd/arblint", "-list")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("arblint -list failed:\n%s\nerror: %v", out, err)
	}
	for _, name := range []string{
		"ctxflow", "lockdiscipline", "tmpcleanup", "closecheck",
		"snappin", "atomicmix", "goroleak", "lockorder",
	} {
		if !strings.Contains(string(out), name) {
			t.Errorf("arblint -list is missing analyzer %s:\n%s", name, out)
		}
	}

	cmd = exec.Command("go", "run", "./cmd/arblint", "-json", "-baseline", ".arblint-baseline.json", "./...")
	cmd.Dir = root
	jsonOut, err := cmd.Output()
	if err != nil {
		t.Fatalf("arblint -json -baseline failed: %v", err)
	}
	var findings []map[string]any
	if err := json.Unmarshal(jsonOut, &findings); err != nil {
		t.Fatalf("arblint -json emitted invalid JSON: %v\n%s", err, jsonOut)
	}
	if len(findings) != 0 {
		t.Fatalf("clean tree with baseline applied still has findings:\n%s", jsonOut)
	}
}

// TestNoDeferredDebt asserts the module carries no arblint:todo markers:
// deferred-debt waivers are paid down, not accumulated. A todo is only
// acceptable within a PR that also files the work it defers; landing one
// permanently requires changing this test, which is the point.
func TestNoDeferredDebt(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs arblint over the whole module")
	}
	root := moduleRoot(t)
	cmd := exec.Command("go", "run", "./cmd/arblint", "-todos", "./...")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("arblint -todos failed:\n%s\nerror: %v", out, err)
	}
	if len(out) != 0 {
		t.Fatalf("module carries arblint:todo markers:\n%s", out)
	}
}
