package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// serve.go runs the serving-path workload: an in-process server on a
// loopback port, driven over real HTTP in a closed loop. A caller of a
// planning service waits for its plan before it asks for the next, so
// the load is a fixed window of outstanding jobs, not an arrival rate:
// one goroutine submits, one polls every pollEvery for the jobs in
// flight, each on its own connection. An operation is one job.

const (
	window    = 4 // outstanding jobs: two per executor on this host, so a short queue forms and nothing is shed
	pollEvery = 5 * time.Millisecond
)

// job is one submission as the harness saw it.
type job struct {
	seq      int
	session  int
	kind     int // index into jobKinds
	resubmit *job
	code     int // HTTP status of the submission
	id       string
	hash     string // resultHash a resubmission was answered with

	submitStart, submitEnd, observedDone time.Time
	final                                jobView
}

// phase is one stretch of the closed loop measured on its own.
type phase struct {
	name       string
	length     float64 // seconds; 0 for the warm-up, which ends by job count
	enter      func() error
	leave      func() error
	start, end time.Time
	before     runtime.MemStats
	after      runtime.MemStats
}

type serveRun struct {
	opts     runOpts
	res      *runResult
	sessions []session
	srv      *server
	submit   *http.Client
	poll     *http.Client
	phases   []*phase

	mu          sync.Mutex
	jobs        []*job
	outstanding map[string]*job
	completed   []*job
	statusGets  []float64 // seconds per GET /v1/jobs/{id}
	slots       chan struct{}
}

func oneConnClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

func runServe(ctx context.Context, opts runOpts, res *runResult) error {
	r := &serveRun{opts: opts, res: res, submit: oneConnClient(), poll: oneConnClient(),
		outstanding: map[string]*job{}, slots: make(chan struct{}, window)}
	defer r.submit.CloseIdleConnections()
	defer r.poll.CloseIdleConnections()

	// Set-up: generate every session, encode every request body, start
	// the server on a fresh state directory.
	reps := setupReps
	if opts.traced {
		reps = 1
	}
	var setups []float64
	var genS float64
	for i := 0; i < reps; i++ {
		if r.srv != nil {
			if err := r.srv.stop(); err != nil {
				return err
			}
		}
		stateDir := filepath.Join(opts.workDir, fmt.Sprintf("state-%d", i))
		start := time.Now()
		var err error
		if r.sessions, res.InputsCapped, genS, err = genSessions(opts.seed, opts.size); err != nil {
			return err
		}
		if err := os.MkdirAll(stateDir, 0o755); err != nil {
			return err
		}
		if r.srv, err = startServer(stateDir); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer r.srv.stop()

	warm := &phase{name: "warmup"}
	timed := &phase{name: "timed", length: opts.seconds}
	r.phases = []*phase{warm, timed}
	var prof *cpuProfile
	var shares map[string]float64
	profiled := &phase{name: "profiled", length: opts.seconds / 2}
	oneCore := &phase{name: "onecore", length: opts.seconds / 4}
	if opts.traced {
		timed.length = opts.seconds / 2
		profiled.enter = func() (err error) { prof, err = startCPUProfile(); return err }
		profiled.leave = func() (err error) { shares, err = prof.stop(); return err }
		procs := runtime.GOMAXPROCS(0)
		oneCore.enter = func() error { runtime.GOMAXPROCS(1); return nil }
		oneCore.leave = func() error { runtime.GOMAXPROCS(procs); return nil }
		r.phases = append(r.phases, profiled, oneCore)
	}
	if err := r.drive(ctx); err != nil {
		return err
	}
	for _, p := range r.phases {
		if p.start.IsZero() {
			return fmt.Errorf("bench: serve ran out of its %d sessions before phase %q: raise sizing.sessions", len(r.sessions), p.name)
		}
	}
	r.verify()
	latency, done := r.latencies(timed), r.completions(timed)
	if len(latency) == 0 || done == 0 {
		return nil // every failure is recorded; there is nothing to report
	}

	if !opts.traced {
		res.set("setup_s", median(setups), "s", len(setups))
		res.set("op_wall_s", median(latency), "s", len(latency))
		res.set("ops_per_s", r.rate(timed), "1/s", done)
		r.qualityMetrics(ctx)
		res.set("alloc_mb_per_op", float64(timed.after.TotalAlloc-timed.before.TotalAlloc)/1e6/float64(done), "MB", done)
		res.set("peak_rss_mb", peakRSSMB(), "MB", 0)
		return nil
	}
	return r.layerMetrics(ctx, genS, timed, profiled, oneCore, shares)
}

// drive runs the closed loop through every phase and returns once every
// accepted job has reached a terminal state.
func (r *serveRun) drive(ctx context.Context) error {
	pollDone := make(chan struct{})
	stopPolling := make(chan struct{})
	go func() {
		defer close(pollDone)
		ticker := time.NewTicker(pollEvery)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
			case <-ctx.Done():
				return
			}
			r.pollOnce()
			select {
			case <-stopPolling:
				r.mu.Lock()
				left := len(r.outstanding)
				r.mu.Unlock()
				if left == 0 {
					return
				}
			default:
			}
		}
	}()
	err := r.submitAll(ctx)
	close(stopPolling)
	<-pollDone
	return err
}

// submitAll is the submitter: it takes a window slot, sends the next
// job, and moves the run from phase to phase as their time runs out.
func (r *serveRun) submitAll(ctx context.Context) error {
	rng := rand.New(rand.NewSource(r.opts.seed))
	sz := r.opts.size
	total := len(r.sessions) * len(jobKinds)
	cur := 0
	if err := r.enter(r.phases[0]); err != nil {
		return err
	}
	defer func() {
		if cur < len(r.phases) {
			r.leave(r.phases[cur])
		}
	}()
	sinceResubmit := 0
	for next := 0; next < total; {
		// Phase changes happen between submissions.
		p := r.phases[cur]
		over := p.length > 0 && time.Since(p.start).Seconds() >= p.length
		if p.length == 0 && next >= sz.warmupJobs {
			over = true
		}
		if over {
			if err := r.leave(p); err != nil {
				return err
			}
			cur++
			if cur == len(r.phases) {
				return nil
			}
			if err := r.enter(r.phases[cur]); err != nil {
				return err
			}
			continue
		}

		j := &job{session: next / len(jobKinds), kind: next % len(jobKinds)}
		if cur > 0 && sinceResubmit >= sz.resubmitGap {
			// A byte-identical resubmission of a finished job: the dedup
			// path. It is answered at once and takes no window slot.
			r.mu.Lock()
			if len(r.completed) > 0 {
				first := r.completed[rng.Intn(len(r.completed))]
				j = &job{session: first.session, kind: first.kind, resubmit: first}
			}
			r.mu.Unlock()
			sinceResubmit = 0
		}
		if j.resubmit == nil {
			select {
			case r.slots <- struct{}{}:
			case <-ctx.Done():
				return ctx.Err()
			}
			next++
			sinceResubmit++
		}
		r.send(j)
	}
	return nil
}

func (r *serveRun) enter(p *phase) error {
	if p.enter != nil {
		if err := p.enter(); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&p.before)
	p.start = time.Now()
	return nil
}

func (r *serveRun) leave(p *phase) error {
	p.end = time.Now()
	runtime.ReadMemStats(&p.after)
	if p.leave != nil {
		return p.leave()
	}
	return nil
}

// send submits one job and files it: a new job waits for the poller, a
// resubmission or a refusal is over at once.
func (r *serveRun) send(j *job) {
	s := &r.sessions[j.session]
	r.res.Attempted++
	j.submitStart = time.Now()
	view, code, err := submitJob(r.submit, r.srv.addr, s.bodies[j.kind], s.tenant)
	j.submitEnd = time.Now()
	j.code, j.id, j.hash = code, view.ID, view.ResultHash

	r.mu.Lock()
	defer r.mu.Unlock()
	j.seq = len(r.jobs)
	r.jobs = append(r.jobs, j)
	switch {
	case err != nil:
		r.res.fail("job %d: submit: %v", j.seq, err)
	case j.resubmit != nil:
		return // checked in verify
	case code == http.StatusAccepted:
		r.outstanding[j.id] = j
		return
	default:
		r.res.fail("job %d (%s, session %d): submit answered %d, want 202", j.seq, jobKinds[j.kind], j.session, code)
	}
	if j.resubmit == nil {
		<-r.slots
	}
}

// pollOnce asks for the status of every job in flight.
func (r *serveRun) pollOnce() {
	r.mu.Lock()
	inFlight := make([]*job, 0, len(r.outstanding))
	for _, j := range r.outstanding {
		inFlight = append(inFlight, j)
	}
	r.mu.Unlock()
	sort.Slice(inFlight, func(a, b int) bool { return inFlight[a].seq < inFlight[b].seq })
	for _, j := range inFlight {
		start := time.Now()
		view, code, err := getJob(r.poll, r.srv.addr, j.id)
		now := time.Now()
		r.mu.Lock()
		r.statusGets = append(r.statusGets, now.Sub(start).Seconds())
		if err != nil || code != http.StatusOK {
			// The job is lost to the harness; verify reports it.
			view = jobView{State: "lost", Error: fmt.Sprintf("status answered %d: %v", code, err)}
		}
		if view.State == "lost" || view.terminal() {
			j.observedDone, j.final = now, view
			delete(r.outstanding, j.id)
			if view.done() {
				r.completed = append(r.completed, j)
			}
			<-r.slots
		}
		r.mu.Unlock()
	}
}

// verify checks every job's outcome once the loop has drained.
func (r *serveRun) verify() {
	pairs := map[string]string{}
	for _, j := range r.jobs {
		switch {
		case j.resubmit != nil:
			first := j.resubmit
			if j.code != http.StatusOK || j.id != first.id || j.hash != first.final.ResultHash {
				r.res.fail("job %d: resubmission of job %d answered %d id %s hash %s, want 200 id %s hash %s",
					j.seq, first.seq, j.code, j.id, j.hash, first.id, first.final.ResultHash)
			}
		case j.code != http.StatusAccepted || j.observedDone.IsZero():
			// refused or lost: already recorded
		case !j.final.done():
			r.res.fail("job %d (%s, session %d) ended %s: %s", j.seq, jobKinds[j.kind], j.session, j.final.State, j.final.Error)
		default:
			pairs[j.id] = j.final.ResultHash
			if j.kind != 0 { // place and failover results carry a placement
				if _, err := verifyPlaceResult(j.final.Result, appIDs(r.sessions[j.session].fleet)); err != nil {
					r.res.fail("job %d (%s, session %d): %v", j.seq, jobKinds[j.kind], j.session, err)
				}
			}
		}
	}
	r.res.Digest = digest(pairs)
}

// in reports whether t falls into the phase.
func (p *phase) in(t time.Time) bool { return !t.Before(p.start) && t.Before(p.end) }

// latencies returns submit → observed done of the new jobs submitted
// during the phase that ended done.
func (r *serveRun) latencies(p *phase) []float64 {
	var out []float64
	for _, j := range r.jobs {
		if j.resubmit == nil && p.in(j.submitStart) && j.final.done() {
			out = append(out, j.observedDone.Sub(j.submitStart).Seconds())
		}
	}
	return out
}

// completions counts the jobs observed done during the phase, whenever
// they were submitted: the loop is in steady state at both ends of a
// phase, so this is its throughput without a ramp or a drain.
func (r *serveRun) completions(p *phase) int {
	n := 0
	for _, j := range r.jobs {
		if j.resubmit == nil && j.final.done() && p.in(j.observedDone) {
			n++
		}
	}
	return n
}

func (r *serveRun) rate(p *phase) float64 {
	return float64(r.completions(p)) / p.end.Sub(p.start).Seconds()
}

// qualityMetrics scores the place jobs of the first sessions, a fixed
// set whatever the run's throughput, against bounds computed from the
// same traces.
func (r *serveRun) qualityMetrics(ctx context.Context) {
	pipe := servePipeline()
	var t qualityTally
	for _, j := range r.jobs {
		if j.resubmit != nil || jobKinds[j.kind] != "place" || j.session >= r.opts.size.qualitySessions || !j.final.done() {
			continue
		}
		placed, err := verifyPlaceResult(j.final.Result, appIDs(r.sessions[j.session].fleet))
		if err != nil {
			continue // recorded by verify
		}
		b, err := pipe.bound(ctx, r.sessions[j.session].fleet)
		if err != nil {
			r.res.fail("session %d: lower bound: %v", j.session, err)
			continue
		}
		t.add(placed.ServersUsed, placed.CRequCPU, b)
	}
	t.report(r.res)
}

// layerMetrics reports the traced run: the service's stages from each
// job's own timestamps, the program's counters from each job's progress
// block, and the same direct probes the plan workloads use.
func (r *serveRun) layerMetrics(ctx context.Context, genS float64, timed, profiled, oneCore *phase, shares map[string]float64) error {
	res := r.res
	spans := newSpanLog()
	var submit, queue, finish, latency []float64
	run := map[string][]float64{}
	busy := 0.0
	progress := map[string]int64{}
	jobs := 0
	for _, j := range r.jobs {
		if j.resubmit != nil || !j.final.done() || j.final.Started == nil || j.final.Finished == nil {
			continue
		}
		v := j.final
		root := spans.add(j.seq+1, 0, "bench.serve.job", j.submitStart, j.observedDone)
		spans.add(j.seq+1, root, "submit", j.submitStart, j.submitEnd)
		spans.add(j.seq+1, root, "queue", v.Submitted, *v.Started)
		spans.add(j.seq+1, root, "run", *v.Started, *v.Finished)
		spans.add(j.seq+1, root, "finish", *v.Finished, j.observedDone)
		if !timed.in(j.submitStart) {
			continue
		}
		jobs++
		submit = append(submit, j.submitEnd.Sub(j.submitStart).Seconds()*1e3)
		queue = append(queue, v.Started.Sub(v.Submitted).Seconds()*1e3)
		finish = append(finish, j.observedDone.Sub(*v.Finished).Seconds()*1e3)
		latency = append(latency, j.observedDone.Sub(j.submitStart).Seconds())
		kind := jobKinds[j.kind]
		run[kind] = append(run[kind], v.Finished.Sub(*v.Started).Seconds()*1e3)
		busy += v.Finished.Sub(*v.Started).Seconds()
		for name, n := range v.Progress {
			progress[name] += n
		}
	}
	if jobs == 0 {
		return nil
	}

	// Counts are per job, summed over the jobs of the timed phase. Jobs
	// share one simulation cache and run two at a time, so unlike the
	// plan workloads' counts these move a little from run to run.
	for metric, name := range countedBy {
		v, ok := progress[name]
		if !ok {
			res.Absent = append(res.Absent, name)
		}
		res.set(metric, float64(v)/float64(jobs), "count", jobs)
	}
	sort.Strings(res.Absent)
	res.set("placement.eval_cache_hit_ratio", hitRatio(progress, "placement_eval_cache"), "ratio", jobs)
	res.set("placement.shared_cache_hit_ratio", hitRatio(progress, "placement_shared_cache"), "ratio", jobs)
	dedup, shed := 0, 0
	for _, j := range r.jobs {
		switch j.code {
		case http.StatusOK:
			dedup++
		case http.StatusTooManyRequests:
			shed++
		}
	}
	res.set("serve.dedup_hits", float64(dedup), "count", len(r.jobs))
	res.set("serve.shed", float64(shed), "count", len(r.jobs))

	probeRoot := spans.open(0, 0, "bench.probe")
	pipe := servePipeline()
	out, err := pipe.run(ctx, r.sessions[0].fleet, planEnv{spans: spans, parent: probeRoot})
	spans.done(probeRoot)
	if err != nil {
		return fmt.Errorf("bench: probe plan: %w", err)
	}
	if err := layerProbes(res, out, pipe, r.sessions[0].fleet, r.opts); err != nil {
		return err
	}

	n := float64(r.completions(timed))
	res.set("workload.generate_s", genS, "s", len(r.sessions))
	res.set("parallel.speedup", r.rate(timed)/r.rate(oneCore), "x", runtime.GOMAXPROCS(0))
	res.set("telemetry.overhead_share", r.rate(timed)/r.rate(profiled)-1, "share", r.completions(profiled))
	for _, l := range layers {
		res.set(l+".cpu_share", shares[l], "share", 0)
	}
	res.set("runtime.gc_cycles", float64(timed.after.NumGC-timed.before.NumGC)/n, "count", int(n))
	res.set("runtime.allocs_per_op", float64(timed.after.Mallocs-timed.before.Mallocs)/n, "count", int(n))
	first := r.jobs[0]
	res.set("runtime.first_rep_s", first.observedDone.Sub(first.submitStart).Seconds(), "s", 1)

	res.setOnly("serve.job_latency_p95_s", percentile(latency, 95), "s", len(latency))
	res.setOnly("serve.submit_ms_p50", median(submit), "ms", len(submit))
	res.setOnly("serve.submit_ms_p95", percentile(submit, 95), "ms", len(submit))
	res.setOnly("serve.queue_wait_ms_p50", median(queue), "ms", len(queue))
	res.setOnly("serve.queue_wait_ms_p95", percentile(queue, 95), "ms", len(queue))
	for _, kind := range jobKinds {
		res.setOnly("serve.run_ms_p50_"+kind, median(run[kind]), "ms", len(run[kind]))
	}
	res.setOnly("serve.finish_lag_ms_p50", median(finish), "ms", len(finish))
	idle := 1 - busy/(float64(r.srv.executors)*timed.end.Sub(timed.start).Seconds())
	res.setOnly("serve.executor_idle_share", idle, "share", jobs)
	res.setOnly("serve.status_get_us_p50", median(r.statusGets)*1e6, "us", len(r.statusGets))
	return writeSpans(spans, res, r.opts.workDir)
}
