package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ropus/internal/trace"
	"ropus/internal/workload"
)

// writeFleet writes a small fleet CSV and returns its path.
func writeFleet(t *testing.T) string {
	t.Helper()
	set, err := workload.Fleet(workload.FleetConfig{
		Spiky: 1, Bursty: 1, Smooth: 2,
		Weeks: 1, Interval: trace.DefaultInterval, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "traces.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trace.WriteCSV(f, set); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunDispatch(t *testing.T) {
	if err := run(nil); err == nil {
		t.Error("missing subcommand accepted")
	}
	if err := run([]string{"bogus"}); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if err := run([]string{"help"}); err != nil {
		t.Errorf("help failed: %v", err)
	}
}

func TestCmdGenToFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "gen.csv")
	err := run([]string{"gen", "-spiky", "1", "-bursty", "1", "-smooth", "1",
		"-weeks", "1", "-seed", "9", "-o", out})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	set, err := trace.ReadCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 3 {
		t.Errorf("generated %d traces, want 3", len(set))
	}
}

func TestCmdGenFromProfiles(t *testing.T) {
	dir := t.TempDir()
	profilePath := filepath.Join(dir, "profiles.json")
	profileJSON := `[
	  {"id":"web","baseCpu":0.5,"peakCpu":3,"peakHour":14,"businessWidthHours":6,
	   "weekendFactor":0.3,"noiseSigma":0.1,"burstsPerWeek":0},
	  {"id":"batch","baseCpu":0.1,"peakCpu":2,"peakHour":2,"businessWidthHours":4,
	   "weekendFactor":1,"noiseSigma":0.05,"burstsPerWeek":0}
	]`
	if err := os.WriteFile(profilePath, []byte(profileJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "custom.csv")
	if err := run([]string{"gen", "-profiles", profilePath, "-weeks", "1", "-o", out}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	set, err := trace.ReadCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 2 || set[0].AppID != "web" || set[1].AppID != "batch" {
		t.Errorf("generated %v", set.IDs())
	}
	if err := run([]string{"gen", "-profiles", "/does/not/exist"}); err == nil {
		t.Error("missing profile file accepted")
	}
}

func TestCmdGenInvalidConfig(t *testing.T) {
	if err := run([]string{"gen", "-weeks", "0"}); err == nil {
		t.Error("weeks=0 accepted")
	}
}

func TestCmdTranslate(t *testing.T) {
	path := writeFleet(t)
	if err := run([]string{"translate", "-traces", path, "-theta", "0.6"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"translate"}); err == nil {
		t.Error("missing -traces accepted")
	}
	if err := run([]string{"translate", "-traces", "/does/not/exist"}); err == nil {
		t.Error("missing file accepted")
	}
	if err := run([]string{"translate", "-traces", path, "-theta", "0"}); err == nil {
		t.Error("theta=0 accepted")
	}
}

func TestCmdPlace(t *testing.T) {
	path := writeFleet(t)
	if err := run([]string{"place", "-traces", path, "-theta", "0.6", "-cpus", "16"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"place"}); err == nil {
		t.Error("missing -traces accepted")
	}
	// Flags that only act on the hierarchical search are rejected
	// without it, not silently ignored.
	for _, flags := range [][]string{{"-partitions"}, {"-topology", "topo.json"}} {
		err := run(append([]string{"place", "-traces", path}, flags...))
		if err == nil || !strings.Contains(err.Error(), "requires -hierarchical") {
			t.Errorf("place %v without -hierarchical: err = %v", flags, err)
		}
	}
}

func TestCmdFailover(t *testing.T) {
	path := writeFleet(t)
	if err := run([]string{"failover", "-traces", path}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"failover"}); err == nil {
		t.Error("missing -traces accepted")
	}
}

// writeFleetWeeks writes a fleet CSV with the given history length.
func writeFleetWeeks(t *testing.T, weeks int) string {
	t.Helper()
	set, err := workload.Fleet(workload.FleetConfig{
		Spiky: 1, Bursty: 1, Smooth: 2,
		Weeks: weeks, Interval: time.Hour, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "traces.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trace.WriteCSV(f, set); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCmdPlan(t *testing.T) {
	path := writeFleetWeeks(t, 3)
	if err := run([]string{"plan", "-traces", path, "-horizon-weeks", "2",
		"-step-weeks", "1", "-pool-servers", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"plan"}); err == nil {
		t.Error("missing -traces accepted")
	}
	short := writeFleetWeeks(t, 1)
	if err := run([]string{"plan", "-traces", short}); err == nil {
		t.Error("single-week history accepted")
	}
	if err := run([]string{"plan", "-traces", path, "-horizon-weeks", "5",
		"-step-weeks", "2"}); err == nil {
		t.Error("non-dividing step accepted")
	}
}

func TestCmdFailoverJSON(t *testing.T) {
	path := writeFleet(t)
	if err := run([]string{"failover", "-traces", path, "-json"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdSimulate(t *testing.T) {
	path := writeFleet(t)
	if err := run([]string{"simulate", "-traces", path, "-capacity", "32"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"simulate"}); err == nil {
		t.Error("missing -traces accepted")
	}
	if err := run([]string{"simulate", "-traces", path, "-capacity", "0"}); err == nil {
		t.Error("zero capacity accepted")
	}
}
