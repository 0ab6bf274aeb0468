package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ropus/internal/trace"
	"ropus/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// goldenFleet writes the fixed fleet for one golden seed: 4 apps, 3
// weeks of hourly samples, fully determined by the seed.
func goldenFleet(t *testing.T, seed int64) string {
	t.Helper()
	set, err := workload.Fleet(workload.FleetConfig{
		Spiky: 1, Bursty: 1, Smooth: 2,
		Weeks: 3, Interval: time.Hour, Seed: seed,
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

// checkGolden compares got with the named golden file, or rewrites the
// file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (run 'go test ./cmd/ropus -run Golden -update'): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file %s\n--- golden\n%s\n--- got\n%s", name, path, want, got)
	}
}

// TestGolden pins the user-visible output of the pipeline stages — the
// portfolio split, the failover report JSON, the capacity-plan JSON and
// the per-server placement diagnostics — for three fixed seeds. Any behavioural drift in translation,
// placement, failure analysis or planning shows up as a readable diff;
// deliberate changes regenerate the corpus with -update.
func TestGolden(t *testing.T) {
	for _, seed := range []int64{3, 7, 2006} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			traces := goldenFleet(t, seed)

			out, err := captureStdout(t, func() error {
				return run([]string{"translate", "-traces", traces})
			})
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, fmt.Sprintf("translate_seed%d.txt", seed), out)

			out, err = captureStdout(t, func() error {
				return run([]string{"failover", "-traces", traces, "-json"})
			})
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, fmt.Sprintf("failover_seed%d.json", seed), out)

			out, err = captureStdout(t, func() error {
				return run([]string{"plan", "-traces", traces, "-json",
					"-horizon-weeks", "2", "-step-weeks", "1", "-pool-servers", "2"})
			})
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, fmt.Sprintf("plan_seed%d.json", seed), out)

			out, err = captureStdout(t, func() error {
				return run([]string{"place", "-traces", traces, "-diagnose"})
			})
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, fmt.Sprintf("place_diagnose_seed%d.txt", seed), out)
		})
	}
}
