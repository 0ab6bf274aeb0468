package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"strings"
	"time"

	"ropus/internal/obslog"
	"ropus/internal/serve"
)

// cmdServe runs the long-lived planning service. The ctx already
// carries SIGINT/SIGTERM cancellation from run(), so a signal starts
// the graceful drain: admission flips to 503, in-flight sweeps stop at
// their next checkpoint boundary, and a server restarted on the same
// -state-dir resumes them.
func cmdServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	retry := retryFlags(fs)
	var (
		addr     = fs.String("addr", "127.0.0.1:7925", "listen address")
		stateDir = fs.String("state-dir", "", "directory for job specs, results, checkpoint journals and leases (required; shareable across a fleet)")
		instance = fs.String("instance", "", "fleet instance identity in leases and results (empty = host-pid-seq)")
		leaseTTL = fs.Duration("lease-ttl", 0, "job-lease heartbeat budget before peers may steal (0 = 10s)")
		scanIntv = fs.Duration("scan-interval", 0, "how often the fleet scanner re-reads the shared state dir (0 = 1s)")
		depth    = fs.Int("queue-depth", 64, "max queued jobs before submissions are shed with 429")
		weights  = fs.String("tenant-weights", "", "admission weights as tenant=n pairs (DRR dequeue + graduated shedding)")
		quotas   = fs.String("tenant-quotas", "", "per-tenant queued-job caps as tenant=n pairs")
		values   = fs.String("tenant-values", "", "tenant business value as tenant=v pairs (revenue/h); overload sheds lowest-value tenants first")
		maxConc  = fs.Int("max-concurrent", 0, "max jobs executing at once (0 = GOMAXPROCS)")
		classes  = fs.String("class-limits", "failover=2,plan=1", "per-kind concurrency caps as kind=n pairs (empty disables)")
		workers  = fs.Int("workers", 0, "per-job failure-sweep workers (0 = GOMAXPROCS, 1 = sequential)")
		cacheMB  = fs.Int64("sim-cache-mb", 0, "shared simulation cache bound in MiB (0 = default, negative disables)")
		drain    = fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget for in-flight jobs and connections")
		logFmt   = fs.String("log-format", "json", "structured log encoding on stderr: json, text, or off")
		logLvl   = fs.String("log-level", "info", "minimum log level: debug, info, warn, error")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *stateDir == "" {
		return fmt.Errorf("serve: -state-dir is required")
	}
	limits, err := parsePairs("-class-limits", *classes, positiveCount)
	if err != nil {
		return err
	}
	tenantWeights, err := parsePairs("-tenant-weights", *weights, positiveCount)
	if err != nil {
		return err
	}
	tenantQuotas, err := parsePairs("-tenant-quotas", *quotas, positiveCount)
	if err != nil {
		return err
	}
	tenantValues, err := parsePairs("-tenant-values", *values, positiveValue)
	if err != nil {
		return err
	}
	cacheBytes, err := simCacheBytes(*cacheMB)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	logger := obslog.Discard()
	if *logFmt != "off" {
		logger = obslog.New(os.Stderr, obslog.Options{
			Level:  obslog.ParseLevel(*logLvl),
			Format: *logFmt,
		})
	}
	cfg := serve.Config{
		StateDir:      *stateDir,
		Instance:      *instance,
		LeaseTTL:      *leaseTTL,
		ScanInterval:  *scanIntv,
		QueueDepth:    *depth,
		TenantWeights: tenantWeights,
		TenantQuotas:  tenantQuotas,
		TenantValues:  tenantValues,
		MaxConcurrent: *maxConc,
		ClassLimits:   limits,
		Workers:       *workers,
		CacheBytes:    cacheBytes,
		Retry:         retry.policy(nil),
		DrainTimeout:  *drain,
		Logger:        logger,
	}
	s, err := serve.New(*addr, cfg)
	if err != nil {
		return err
	}
	queued, _ := s.Manager().QueueDepths()
	logger.LogAttrs(ctx, slog.LevelInfo, "serve.listening",
		slog.String("addr", s.Addr()),
		slog.String("state_dir", *stateDir),
		slog.String("instance", s.Manager().Instance()),
		slog.Int("jobs_recovered", queued))
	return s.Run(ctx)
}

// parsePairs parses a "name=n,name=n" flag (class limits, tenant
// weights, quotas and values) into a map, each n through parse. An
// empty flag is no map; an empty or repeated name is an error.
func parsePairs[T any](flagName, s string, parse func(string) (T, error)) (map[string]T, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]T)
	for _, pair := range strings.Split(s, ",") {
		name, n, ok := strings.Cut(strings.TrimSpace(pair), "=")
		switch {
		case !ok:
			return nil, fmt.Errorf("serve: %s entry %q is not name=n", flagName, pair)
		case name == "":
			return nil, fmt.Errorf("serve: %s entry %q has no name", flagName, pair)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("serve: %s names %q twice", flagName, name)
		}
		v, err := parse(n)
		if err != nil {
			return nil, fmt.Errorf("serve: %s %q %w", flagName, pair, err)
		}
		out[name] = v
	}
	return out, nil
}

// positiveCount parses an integer >= 1.
func positiveCount(s string) (int, error) {
	v, err := strconv.Atoi(s)
	if err != nil || v < 1 {
		return 0, errors.New("needs a positive count")
	}
	return v, nil
}

// positiveValue parses a number in (0, 1e18]; NaN and the infinities
// fail the range test.
func positiveValue(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || !(v > 0 && v <= 1e18) {
		return 0, errors.New("needs a positive value")
	}
	return v, nil
}
