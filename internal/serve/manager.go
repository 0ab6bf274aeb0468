package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ropus/internal/checkpoint"
	"ropus/internal/faultinject"
	"ropus/internal/flight"
	"ropus/internal/lease"
	"ropus/internal/obslog"
	"ropus/internal/parallel"
	"ropus/internal/placement"
	"ropus/internal/resilience"
	"ropus/internal/robust"
	"ropus/internal/slo"
	"ropus/internal/telemetry"
)

// Job states.
const (
	StateQueued      = "queued"
	StateRunning     = "running"
	StateDone        = "done"
	StateFailed      = "failed"
	StateInterrupted = "interrupted"
)

// DefaultTenant is the admission class of submissions that carry no
// tenant header.
const DefaultTenant = "default"

// ErrDraining rejects submissions while the server shuts down.
var ErrDraining = errors.New("serve: draining, not accepting jobs")

// OverloadedError sheds a submission that would overflow the queue (or
// a tenant's share of it). RetryAfter estimates when a slot should
// free up.
type OverloadedError struct {
	Queued     int
	QueueDepth int
	// Tenant is the admission class the shed submission belonged to;
	// Reason distinguishes a globally full queue from a tenant that
	// exhausted its weighted share or hard quota.
	Tenant     string
	Reason     string
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	reason := e.Reason
	if reason == "" {
		reason = "queue full"
	}
	return fmt.Sprintf("serve: %s for tenant %q (%d/%d queued), retry after %s",
		reason, e.Tenant, e.Queued, e.QueueDepth, e.RetryAfter)
}

// Config parameterizes a Manager (and the Server wrapping it).
type Config struct {
	// StateDir persists submitted specs, results, checkpoint journals
	// and job leases; a server restarted on the same directory resumes
	// its unfinished jobs (required). Multiple live instances may share
	// one StateDir: leases arbitrate job ownership, and an instance
	// steals a peer's job once its lease heartbeat expires.
	StateDir string
	// Instance identifies this process in lease files and result
	// documents. Empty selects host-pid-seq, unique per Manager.
	Instance string
	// LeaseTTL is the job-lease heartbeat budget: a holder that misses
	// renewals for this long is presumed dead and its jobs stealable.
	// <= 0 selects lease.DefaultTTL.
	LeaseTTL time.Duration
	// ScanInterval is how often the fleet scanner re-reads the shared
	// state directory for jobs submitted to peers, results completed by
	// peers, and expired leases to reclaim. <= 0 selects 1s.
	ScanInterval time.Duration
	// SSEPoll is the granularity of the /v1/jobs/{id}/events stream
	// (how often a subscriber's snapshot is refreshed). <= 0 selects
	// 150ms.
	SSEPoll time.Duration
	// QueueDepth bounds the number of queued (admitted, not yet
	// running) jobs; submissions beyond it are shed with an
	// OverloadedError. <= 0 selects 64.
	QueueDepth int
	// TenantWeights maps a tenant to its admission weight (default 1).
	// Weights shape both sides of admission: dequeue is deficit-round-
	// robin with each tenant's quantum equal to its weight, and
	// shedding is graduated — tenant t is shed once the queue holds
	// QueueDepth * weight(t) / maxWeight jobs, so the lowest-weight
	// tenants shed first as the queue fills while the highest-weight
	// tenant can use the full depth. Uniform weights reduce to plain
	// FIFO with a single shared threshold.
	TenantWeights map[string]int
	// TenantQuotas caps how many jobs a tenant may hold queued at once,
	// independent of global occupancy. Absent or <= 0 is uncapped.
	TenantQuotas map[string]int
	// TenantValues maps a tenant to its business value (revenue per hour,
	// or any consistent unit; default 1). When non-empty it overrides the
	// weight-derived shed order: tenant t is shed once the queue holds
	// QueueDepth * value(t) / maxValue jobs, so under overload the
	// lowest-value tenants shed first and the highest-value tenant keeps
	// the full depth. Dequeue order is still weighted DRR — values decide
	// who gets turned away, weights decide who goes first among the
	// admitted. Accepted jobs are never evicted.
	TenantValues map[string]float64
	// MaxConcurrent bounds how many jobs execute at once across all
	// classes. <= 0 selects GOMAXPROCS.
	MaxConcurrent int
	// ClassLimits bounds per-kind concurrency ("failover": 1 keeps the
	// expensive sweeps from monopolizing the executors). A kind absent
	// or <= 0 is limited only by MaxConcurrent.
	ClassLimits map[string]int
	// Workers is the per-job failure-sweep worker count (core.Config
	// semantics: 0 = GOMAXPROCS, 1 = sequential).
	Workers int
	// CacheBytes bounds the simulation cache shared by every job the
	// server runs (0 = default bound, negative disables).
	CacheBytes int64
	// Retry is the self-healing policy applied inside failover and plan
	// jobs (resilience.Policy semantics).
	Retry resilience.Policy
	// DrainTimeout bounds the graceful shutdown: how long Serve waits
	// for in-flight jobs to reach a checkpoint boundary and for open
	// connections to finish. <= 0 selects 30s.
	DrainTimeout time.Duration
	// Inject is the test-only fault injector threaded into every job's
	// framework, into the lease keeper (lease.acquire, lease.expire,
	// lease.steal, lease.renew points) and into the result write
	// (serve.result.write); nil injects nothing.
	Inject faultinject.Injector
	// Logger receives the service's structured log records (job
	// lifecycle, pipeline stages via the jobs' contexts); nil discards
	// them.
	Logger *slog.Logger
	// FlightEvents bounds the server's flight-recorder ring (<= 0
	// selects flight.DefaultCapacity).
	FlightEvents int
	// SLOWindow is the per-series quantile window (<= 0 selects
	// slo.DefaultWindow).
	SLOWindow int
	// Objectives overrides the default latency objectives (nil selects
	// DefaultObjectives).
	Objectives []slo.Objective
}

// SLO series names the manager observes into. submit_accept times the
// synchronous admission path, submit_complete the whole submit→finished
// job lifetime, scenario_sim each failure-scenario analysis (mirrored
// from the jobs' failure_scenario_seconds histograms).
const (
	SeriesSubmitAccept   = "submit_accept"
	SeriesSubmitComplete = "submit_complete"
	SeriesScenarioSim    = "scenario_sim"
)

// DefaultObjectives are the serve SLOs: admission is interactive
// (100ms), job completion is batch-interactive (120s), and a single
// scenario analysis should stay inside 10s.
func DefaultObjectives() []slo.Objective {
	return []slo.Objective{
		{Name: SeriesSubmitAccept, Series: SeriesSubmitAccept, LatencyBound: 0.1, Budget: 0.01},
		{Name: SeriesSubmitComplete, Series: SeriesSubmitComplete, LatencyBound: 120, Budget: 0.05},
		{Name: SeriesScenarioSim, Series: SeriesScenarioSim, LatencyBound: 10, Budget: 0.05},
	}
}

// instanceSeq distinguishes Managers built in one process.
var instanceSeq atomic.Uint64

func defaultInstance() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "host"
	}
	return fmt.Sprintf("%s-%d-%d", host, os.Getpid(), instanceSeq.Add(1))
}

func (c Config) withDefaults() Config {
	if c.Instance == "" {
		c.Instance = defaultInstance()
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = lease.DefaultTTL
	}
	if c.ScanInterval <= 0 {
		c.ScanInterval = time.Second
	}
	if c.SSEPoll <= 0 {
		c.SSEPoll = 150 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	return c
}

// Job is one admitted planning job. Fields are guarded by the owning
// Manager's mutex; JobStatus snapshots them for handlers. A terminal job
// is a fixed-size header: its spec and result document live in the
// state directory (results are served through the manager's result
// cache), its registry is collapsed into progress, and its spans move
// under the server-wide trace budget.
type Job struct {
	ID     string
	Kind   string
	Tenant string
	State  string
	Err    string
	// Instance is the fleet member currently (or last) responsible for
	// the job: ourselves while running locally, the lease holder while
	// a peer runs it, the completing instance once finished.
	Instance string
	// Resumed marks a job re-queued by a restart or reclaimed after a
	// lease expiry; its checkpoint journal replays the finished units
	// of the interrupted attempt.
	Resumed bool
	// Stolen marks a job this instance took over from an expired peer
	// lease.
	Stolen     bool
	ResultHash string
	Submitted  time.Time
	Started    time.Time
	Finished   time.Time
	// spec is the submitted spec, held while the job can still run.
	spec *JobSpec
	// progress is a terminal job's final counter snapshot.
	progress []counterValue
	// result pins the result document of a job whose result file could
	// not be written, so status queries still serve it; nil otherwise.
	result json.RawMessage
	// epoch is the lease epoch of the current local run; checkpoint
	// journals are written per epoch so a zombie writer can never
	// interleave with the thief's journal.
	epoch uint64
	// remote marks a job another instance holds the lease for (or
	// finished); the scanner finalizes or reclaims it.
	remote bool
	// queuedLocal marks a job sitting in this instance's tenant queues.
	queuedLocal bool
	// reg collects the job's own telemetry while it runs; its counters
	// are the status endpoint's progress block until the job finishes.
	reg *telemetry.Registry
	// tracer collects the job's spans (trace ID = job ID) while it runs;
	// it backs GET /v1/jobs/{id}/trace. Jobs recovered from disk have none.
	tracer *telemetry.Tracer
}

// counterValue is one entry of a terminal job's progress block.
type counterValue struct {
	name  string
	value int64
}

// Budgets of what a finished job may keep beyond its header. Measured
// on jobs shaped like the benchmark's serve sessions (12 apps x 336
// slots, translate/place/failover; post-GC heap over 90 jobs, 2-vCPU
// host, go1.24): the header with its progress counters is ≈1 KB, a
// result document 2.1 / 2.9 / 3.3 KB, and a job's 25–33 spans ≈350 B
// each, ≈10 KB a job. (Before headers, a finished job held ≈98 KB, most
// of it its spec's trace CSV.) 8 MiB keeps the last ≈3 000 results
// resident — far more than a status poller or a dedup resubmission
// usually reaches back — and 8 MiB the last ≈800 jobs' spans; older
// results are re-read from the state directory, older traces answer 404.
const (
	resultCacheBytes = 8 << 20
	traceBudgetBytes = 8 << 20
	// spanBytes is the resident cost of one completed span: its record,
	// attribute slice and boxed values, and the buffer's growth slack.
	spanBytes = 350
)

// JobStatus is the API view of a job.
type JobStatus struct {
	ID      string `json:"id"`
	Kind    string `json:"kind"`
	Tenant  string `json:"tenant,omitempty"`
	State   string `json:"state"`
	Error   string `json:"error,omitempty"`
	Resumed bool   `json:"resumed,omitempty"`
	// Stolen marks a job taken over from an expired peer lease; Instance
	// is the fleet member responsible for the job right now.
	Stolen   bool   `json:"stolen,omitempty"`
	Instance string `json:"instance,omitempty"`
	// Progress exposes the job's telemetry counters (scenarios swept,
	// checkpoint records written, GA generations, ...) while it runs
	// and after it finishes.
	Progress   map[string]int64 `json:"progress,omitempty"`
	Result     json.RawMessage  `json:"result,omitempty"`
	ResultHash string           `json:"resultHash,omitempty"`
	Submitted  time.Time        `json:"submitted"`
	Started    *time.Time       `json:"started,omitempty"`
	Finished   *time.Time       `json:"finished,omitempty"`
}

// Manager owns the job table, the admission decisions and the executor
// pool. It is the HTTP-free core of the service, so tests drive it
// directly. In fleet mode N managers share one state directory and
// arbitrate job ownership through leases.
type Manager struct {
	cfg       Config
	cache     *placement.SimCache
	limiter   *parallel.Limiter
	hooks     telemetry.Hooks
	logger    *slog.Logger
	flight    *flight.Recorder
	slo       *slo.Tracker
	leases    *lease.Keeper
	maxWeight int
	maxValue  float64

	submittedC   *telemetry.Counter
	dedupC       *telemetry.Counter
	shedC        *telemetry.Counter
	completedC   *telemetry.Counter
	failedC      *telemetry.Counter
	interruptedC *telemetry.Counter
	stolenC      *telemetry.Counter
	adoptedC     *telemetry.Counter
	remoteDoneC  *telemetry.Counter
	leaseLostC   *telemetry.Counter
	heldSkipC    *telemetry.Counter
	queuedG      *telemetry.Gauge
	runningG     *telemetry.Gauge
	retryAfterG  *telemetry.Gauge
	jobSeconds   *telemetry.Histogram

	ctx    context.Context
	wg     sync.WaitGroup
	notify chan struct{}

	// results holds recent finished jobs' result documents; a miss
	// re-reads results/<id>.json. traces holds finished jobs' spans.
	results *byteLRU[json.RawMessage]
	traces  *byteLRU[*telemetry.Tracer]

	mu   sync.Mutex
	jobs map[string]*Job
	// names interns progress counter names across terminal jobs.
	names map[string]string
	// order is submission/adoption order, for listing.
	order []string
	// Admission is tenant-major: one FIFO per tenant, dequeued by
	// deficit round robin over ring with per-tenant quantum = weight.
	queues      map[string][]string
	ring        []string
	ringMember  map[string]bool
	deficit     map[string]float64
	rrPos       int
	queuedTotal int

	classRunning map[string]int
	running      int
	runningSince map[string]time.Time
	avgSeconds   float64 // EWMA job duration, feeds Retry-After
	draining     bool
}

// NewManager builds a manager and recovers any unfinished jobs from the
// state directory. hooks (nil ok) receives the serve_* metrics.
func NewManager(cfg Config, hooks telemetry.Hooks) (*Manager, error) {
	cfg = cfg.withDefaults()
	if cfg.StateDir == "" {
		return nil, errors.New("serve: Config.StateDir is required")
	}
	for _, sub := range []string{"jobs", "results", "ckpt", "flight", "leases"} {
		if err := os.MkdirAll(filepath.Join(cfg.StateDir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("serve: state dir: %w", err)
		}
	}
	h := telemetry.OrNop(hooks)
	logger := cfg.Logger
	if logger == nil {
		logger = obslog.Discard()
	}
	objectives := cfg.Objectives
	if objectives == nil {
		objectives = DefaultObjectives()
	}
	// Tee the service's log records into its flight recorder, so a
	// job-failure dump carries the correlated log tail alongside events
	// and spans.
	rec := flight.NewRecorder(cfg.FlightEvents)
	logger = obslog.WithRecorder(logger, rec)
	maxWeight := 1
	for _, w := range cfg.TenantWeights {
		if w > maxWeight {
			maxWeight = w
		}
	}
	maxValue := 1.0
	for _, v := range cfg.TenantValues {
		if v > maxValue {
			maxValue = v
		}
	}
	m := &Manager{
		cfg:     cfg,
		limiter: parallel.NewLimiter(cfg.MaxConcurrent),
		hooks:   h,
		logger:  logger,
		flight:  rec,
		slo:     slo.NewTracker(cfg.SLOWindow, objectives...),
		leases: &lease.Keeper{
			Dir:      filepath.Join(cfg.StateDir, "leases"),
			Instance: cfg.Instance,
			TTL:      cfg.LeaseTTL,
			Inject:   cfg.Inject,
			Hooks:    h,
		},
		maxWeight:    maxWeight,
		maxValue:     maxValue,
		submittedC:   h.Counter("serve_jobs_submitted_total"),
		dedupC:       h.Counter("serve_jobs_deduplicated_total"),
		shedC:        h.Counter("serve_jobs_shed_total"),
		completedC:   h.Counter("serve_jobs_completed_total"),
		failedC:      h.Counter("serve_jobs_failed_total"),
		interruptedC: h.Counter("serve_jobs_interrupted_total"),
		stolenC:      h.Counter("serve_jobs_stolen_total"),
		adoptedC:     h.Counter("serve_jobs_adopted_total"),
		remoteDoneC:  h.Counter("serve_jobs_remote_completed_total"),
		leaseLostC:   h.Counter("serve_lease_lost_total"),
		heldSkipC:    h.Counter("serve_lease_held_skips_total"),
		queuedG:      h.Gauge("serve_jobs_queued"),
		runningG:     h.Gauge("serve_jobs_running"),
		retryAfterG:  h.Gauge("serve_retry_after_seconds"),
		jobSeconds:   h.Histogram("serve_job_seconds", nil),
		notify:       make(chan struct{}, 1),
		results:      newByteLRU[json.RawMessage](resultCacheBytes),
		traces:       newByteLRU[*telemetry.Tracer](traceBudgetBytes),
		jobs:         make(map[string]*Job),
		names:        make(map[string]string),
		queues:       make(map[string][]string),
		ringMember:   make(map[string]bool),
		deficit:      make(map[string]float64),
		classRunning: make(map[string]int),
		runningSince: make(map[string]time.Time),
		avgSeconds:   1, // optimistic prior until real durations arrive
	}
	if cfg.CacheBytes >= 0 {
		m.cache = placement.NewSimCache(cfg.CacheBytes)
	}
	if err := m.scanDisk(true); err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.retryAfterLocked() // publish the initial Retry-After estimate
	m.mu.Unlock()
	return m, nil
}

// Instance returns this manager's fleet identity.
func (m *Manager) Instance() string { return m.cfg.Instance }

// Flight exposes the server-wide flight recorder (the /debug/flight
// handler and tests).
func (m *Manager) Flight() *flight.Recorder { return m.flight }

// SLO exposes the latency-objective tracker (the /v1/slo and /metrics
// handlers and tests).
func (m *Manager) SLO() *slo.Tracker { return m.slo }

// Tracer returns the span tracer of a job that ran in this process: a
// running job's own, a finished job's from the trace budget. It is nil
// for unknown jobs, for finished jobs whose spans the budget evicted,
// and for finished jobs recovered from disk, whose spans died with the
// previous process.
func (m *Manager) Tracer(id string) *telemetry.Tracer {
	m.mu.Lock()
	job, ok := m.jobs[id]
	var tracer *telemetry.Tracer
	if ok {
		tracer = job.tracer
	}
	m.mu.Unlock()
	if ok && tracer == nil {
		tracer, _ = m.traces.get(id)
	}
	return tracer
}

// Start launches the scheduler and the fleet scanner; ctx cancellation
// begins the drain: dispatch stops, in-flight jobs stop at their next
// checkpoint boundary and are marked interrupted (their journals keep
// the completed prefix, their leases are released for immediate
// takeover), and Wait returns once the executors settle.
func (m *Manager) Start(ctx context.Context) {
	m.ctx = ctx
	// A panic converted to an error anywhere in the pipeline dumps the
	// flight recorder while the events leading up to it are still in the
	// ring; the job-failed dump that follows captures the same trace's
	// tail, this one captures everything.
	robust.OnPanic(func(op string, v any) {
		m.flight.Record("event", "panic", "", map[string]any{"op": op, "value": fmt.Sprint(v)})
		m.dumpFlight("panic", "panic", "")
	})
	m.wg.Add(2)
	go func() {
		defer m.wg.Done()
		for {
			select {
			case <-ctx.Done():
				return
			case <-m.notify:
			}
			for m.dispatchOne() {
			}
		}
	}()
	// The fleet scanner: adopt jobs peers persisted, finalize jobs peers
	// finished, reclaim jobs whose holder's lease expired or released.
	go func() {
		defer m.wg.Done()
		ticker := time.NewTicker(m.cfg.ScanInterval)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
			}
			m.scanDisk(false)
			m.sweepParked()
		}
	}()
	m.kick()
}

// Wait blocks until the scheduler and every executor have returned.
func (m *Manager) Wait() { m.wg.Wait() }

// kick nudges the scheduler without blocking.
func (m *Manager) kick() {
	select {
	case m.notify <- struct{}{}:
	default:
	}
}

// SetDraining flips admission off (Submit fails with ErrDraining).
func (m *Manager) SetDraining() {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
}

// weight returns a tenant's admission weight (default 1).
func (m *Manager) weight(tenant string) int {
	if w := m.cfg.TenantWeights[tenant]; w > 0 {
		return w
	}
	return 1
}

// value returns a tenant's business value (default 1).
func (m *Manager) value(tenant string) float64 {
	if v := m.cfg.TenantValues[tenant]; v > 0 {
		return v
	}
	return 1
}

// shedThresholdLocked is the global queue occupancy at which tenant
// submissions start shedding: full depth for the heaviest tenant,
// proportionally earlier for lighter ones, so overload sheds the
// bottom of the order first without ever evicting an accepted job.
// When tenant values are configured they define the order (lowest
// revenue sheds first); otherwise the admission weights do.
func (m *Manager) shedThresholdLocked(tenant string) int {
	var t int
	if len(m.cfg.TenantValues) > 0 {
		t = int(float64(m.cfg.QueueDepth) * m.value(tenant) / m.maxValue)
	} else {
		t = m.cfg.QueueDepth * m.weight(tenant) / m.maxWeight
	}
	if t < 1 {
		t = 1
	}
	return t
}

// enqueueLocked appends the job to its tenant's FIFO and keeps the DRR
// ring in sync.
func (m *Manager) enqueueLocked(job *Job) {
	t := job.Tenant
	m.queues[t] = append(m.queues[t], job.ID)
	m.queuedTotal++
	job.queuedLocal = true
	job.remote = false
	if !m.ringMember[t] {
		m.ringMember[t] = true
		m.ring = append(m.ring, t)
	}
	m.queuedG.Set(float64(m.queuedTotal))
}

// removeTenantLocked drops an emptied tenant from the DRR ring and
// forfeits its credit, so an idle tenant cannot hoard deficit.
func (m *Manager) removeTenantLocked(t string) {
	if len(m.queues[t]) > 0 {
		return
	}
	delete(m.queues, t)
	delete(m.ringMember, t)
	m.deficit[t] = 0
	for i, name := range m.ring {
		if name == t {
			m.ring = append(m.ring[:i], m.ring[i+1:]...)
			if m.rrPos > i {
				m.rrPos--
			}
			break
		}
	}
}

// dispatchableLocked returns the index of the first job in tenant t's
// queue whose class has a free slot, or -1.
func (m *Manager) dispatchableLocked(t string) int {
	for i, id := range m.queues[t] {
		kind := m.jobs[id].Kind
		if limit := m.cfg.ClassLimits[kind]; limit > 0 && m.classRunning[kind] >= limit {
			continue
		}
		return i
	}
	return -1
}

// nextQueuedLocked picks the next job by deficit round robin: each
// visit tops a tenant's deficit up by its weight, each dispatched job
// costs 1, and the scheduler stays on a tenant until its deficit is
// spent, so tenants drain in proportion to their weights. Tenants whose
// head-of-queue jobs are class-blocked are skipped without charge. The
// job is removed from its queue; "" means nothing is dispatchable.
func (m *Manager) nextQueuedLocked() string {
	for visited := 0; visited < len(m.ring); visited++ {
		if len(m.ring) == 0 {
			return ""
		}
		m.rrPos %= len(m.ring)
		t := m.ring[m.rrPos]
		idx := m.dispatchableLocked(t)
		if idx < 0 {
			m.rrPos++
			continue
		}
		if m.deficit[t] < 1 {
			m.deficit[t] += float64(m.weight(t))
		}
		if m.deficit[t] < 1 {
			m.rrPos++
			continue
		}
		m.deficit[t]--
		id := m.queues[t][idx]
		m.queues[t] = append(m.queues[t][:idx], m.queues[t][idx+1:]...)
		m.queuedTotal--
		m.jobs[id].queuedLocal = false
		if len(m.queues[t]) == 0 {
			m.removeTenantLocked(t)
		} else if m.deficit[t] < 1 {
			m.rrPos++ // visit exhausted; next tenant on the next pick
		}
		m.queuedG.Set(float64(m.queuedTotal))
		return id
	}
	return ""
}

// Submit admits a job. It is idempotent: a spec hashing to a known job
// returns that job with created=false. A full queue — or a tenant past
// its weighted share or quota — sheds the submission with an
// OverloadedError carrying a Retry-After estimate.
func (m *Manager) Submit(spec JobSpec) (JobStatus, bool, error) {
	start := time.Now()
	spec.normalize()
	set, err := spec.parse()
	if err != nil {
		return JobStatus{}, false, err
	}
	st, created, err := m.admit(jobID(spec.Key(set)), spec, start)
	if err != nil {
		return JobStatus{}, false, err
	}
	// A known finished job answers with its result, which may need a
	// file read: that happens here, outside the table lock.
	return m.withResult(st), created, nil
}

// admit is Submit's decision under the table lock: answer a known job,
// shed, or persist and enqueue a new one.
func (m *Manager) admit(id string, spec JobSpec, start time.Time) (JobStatus, bool, error) {
	tenant := spec.Tenant
	m.mu.Lock()
	defer m.mu.Unlock()
	if job, ok := m.jobs[id]; ok {
		m.dedupC.Inc()
		return m.statusLocked(job), false, nil
	}
	if m.draining {
		return JobStatus{}, false, ErrDraining
	}
	if quota := m.cfg.TenantQuotas[tenant]; quota > 0 && len(m.queues[tenant]) >= quota {
		m.shedC.Inc()
		return JobStatus{}, false, &OverloadedError{
			Queued:     len(m.queues[tenant]),
			QueueDepth: quota,
			Tenant:     tenant,
			Reason:     "tenant quota exhausted",
			RetryAfter: m.retryAfterLocked(),
		}
	}
	if threshold := m.shedThresholdLocked(tenant); m.queuedTotal >= threshold {
		m.shedC.Inc()
		reason := "queue full"
		if threshold < m.cfg.QueueDepth {
			reason = "queue past tenant's weighted share"
			if len(m.cfg.TenantValues) > 0 {
				reason = "queue past tenant's value share"
			}
		}
		return JobStatus{}, false, &OverloadedError{
			Queued:     m.queuedTotal,
			QueueDepth: threshold,
			Tenant:     tenant,
			Reason:     reason,
			RetryAfter: m.retryAfterLocked(),
		}
	}
	if err := m.persistSpec(id, spec); err != nil {
		return JobStatus{}, false, err
	}
	job := &Job{ID: id, Kind: spec.Kind, spec: &spec, Tenant: tenant, State: StateQueued, Submitted: time.Now()}
	m.jobs[id] = job
	m.order = append(m.order, id)
	m.enqueueLocked(job)
	m.submittedC.Inc()
	m.retryAfterLocked()
	m.slo.Observe(SeriesSubmitAccept, time.Since(start).Seconds())
	m.flight.Record("event", "serve.job.submitted", id, map[string]any{"kind": spec.Kind, "tenant": tenant})
	m.logger.LogAttrs(context.Background(), slog.LevelInfo, "serve.job.submitted",
		slog.String("trace_id", id), slog.String("job_id", id),
		slog.String("kind", spec.Kind), slog.String("tenant", tenant))
	m.kick()
	return m.statusLocked(job), true, nil
}

// retryAfterLocked estimates how long until a queue slot frees. The
// per-job duration estimate is recomputed at response time: the EWMA
// over completed jobs — which goes stale during a sustained burst of
// slow jobs, because it only updates at completions — is raised to at
// least the age of the longest-running in-flight job, a live lower
// bound on the true duration. The estimate is scaled by how many jobs
// stand in line per executor and clamped to [1s, 60s] so a misbehaving
// estimate cannot tell clients to hammer the server or go away for an
// hour.
func (m *Manager) retryAfterLocked() time.Duration {
	per := m.avgSeconds
	for _, since := range m.runningSince {
		if e := time.Since(since).Seconds(); e > per {
			per = e
		}
	}
	waves := float64(m.queuedTotal+m.running)/float64(m.cfg.MaxConcurrent) + 1
	est := time.Duration(per * waves * float64(time.Second))
	if est < time.Second {
		est = time.Second
	}
	if est > time.Minute {
		est = time.Minute
	}
	est = est.Round(time.Second)
	// Every recomputation republishes the estimate, so /metrics always
	// shows the Retry-After a shed submission would receive right now.
	m.retryAfterG.Set(est.Seconds())
	return est
}

// Job returns a status snapshot by ID, with a finished job's result.
func (m *Manager) Job(id string) (JobStatus, bool) {
	st, ok := m.status(id)
	if !ok {
		return JobStatus{}, false
	}
	return m.withResult(st), true
}

// status is Job without the result document; it never reads the disk.
func (m *Manager) status(id string) (JobStatus, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	job, ok := m.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return m.statusLocked(job), true
}

// withResult fills a finished job's result document into its status:
// from the result cache, or re-read from the state directory on a miss.
// Callers must not hold m.mu.
func (m *Manager) withResult(st JobStatus) JobStatus {
	if st.State != StateDone || st.Result != nil {
		return st
	}
	if result, ok := m.results.get(st.ID); ok {
		st.Result = result
		return st
	}
	if doc, ok := m.loadResult(st.ID); ok && doc.ResultHash == st.ResultHash {
		m.results.put(st.ID, doc.Result, int64(len(doc.Result)))
		st.Result = doc.Result
	}
	return st
}

// Jobs lists every known job in submission order, without result
// documents or progress counters (a job's own status carries those).
func (m *Manager) Jobs() []JobStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobStatus, 0, len(m.order))
	for _, id := range m.order {
		st := m.statusLocked(m.jobs[id])
		st.Result, st.Progress = nil, nil
		out = append(out, st)
	}
	return out
}

// QueueDepths reports (queued, running) for admission introspection.
func (m *Manager) QueueDepths() (queued, running int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.queuedTotal, m.running
}

func (m *Manager) statusLocked(job *Job) JobStatus {
	st := JobStatus{
		ID:         job.ID,
		Kind:       job.Kind,
		Tenant:     job.Tenant,
		State:      job.State,
		Error:      job.Err,
		Resumed:    job.Resumed,
		Stolen:     job.Stolen,
		Instance:   job.Instance,
		Result:     job.result,
		ResultHash: job.ResultHash,
		Submitted:  job.Submitted,
	}
	if !job.Started.IsZero() {
		t := job.Started
		st.Started = &t
	}
	if !job.Finished.IsZero() {
		t := job.Finished
		st.Finished = &t
	}
	if job.reg != nil {
		snap := job.reg.Snapshot()
		if len(snap.Counters) > 0 {
			st.Progress = snap.Counters
		}
	} else if len(job.progress) > 0 {
		st.Progress = make(map[string]int64, len(job.progress))
		for _, c := range job.progress {
			st.Progress[c.name] = c.value
		}
	}
	return st
}

// progressLocked collapses a counter snapshot into a terminal job's
// progress block, interning the names so every finished job shares one
// copy of each.
func (m *Manager) progressLocked(counters map[string]int64) []counterValue {
	if len(counters) == 0 {
		return nil
	}
	out := make([]counterValue, 0, len(counters))
	for name, v := range counters {
		interned, ok := m.names[name]
		if !ok {
			interned = name
			m.names[name] = name
		}
		out = append(out, counterValue{interned, v})
	}
	return out
}

// dispatchOne starts the next DRR-selected job this instance can win
// the lease for. It reports whether it made progress (dispatched a job
// or parked one a peer owns), so the scheduler loops until the queues
// are drained or blocked.
func (m *Manager) dispatchOne() bool {
	if m.ctx.Err() != nil {
		return false
	}
	m.mu.Lock()
	id := m.nextQueuedLocked()
	if id == "" {
		m.mu.Unlock()
		return false
	}
	job := m.jobs[id]
	if !m.limiter.TryAcquire() {
		// No executor free: put the job back at the head of its queue.
		m.queues[job.Tenant] = append([]string{id}, m.queues[job.Tenant]...)
		m.queuedTotal++
		job.queuedLocal = true
		if !m.ringMember[job.Tenant] {
			m.ringMember[job.Tenant] = true
			m.ring = append(m.ring, job.Tenant)
		}
		m.queuedG.Set(float64(m.queuedTotal))
		m.mu.Unlock()
		return false
	}
	m.mu.Unlock()

	// Lease arbitration happens outside the table lock: it fsyncs.
	l, err := m.leases.Acquire("job-" + id)
	if err != nil {
		m.limiter.Release()
		m.mu.Lock()
		defer m.mu.Unlock()
		var held *lease.HeldError
		if errors.As(err, &held) {
			// A peer owns the job: park it. The scanner reclaims it if the
			// holder's lease expires, and finalizes it when the holder's
			// result lands.
			job.remote = true
			if held.Instance != "" {
				job.Instance = held.Instance
			}
			m.heldSkipC.Inc()
			return true
		}
		m.hooks.Counter("serve_lease_errors_total").Inc()
		m.logger.LogAttrs(context.Background(), slog.LevelWarn, "serve.lease.error",
			slog.String("job_id", id), slog.String("error", err.Error()))
		m.enqueueLocked(job)
		return false
	}

	m.mu.Lock()
	spec := job.spec
	if spec == nil {
		// A peer's result was adopted while we took the lease: the job
		// is finished and its spec is gone from the table.
		m.mu.Unlock()
		l.Release()
		m.limiter.Release()
		return true
	}
	job.State = StateRunning
	job.Started = time.Now()
	job.Instance = m.cfg.Instance
	job.Stolen = l.Stolen()
	job.epoch = l.Epoch()
	job.remote = false
	job.reg = telemetry.NewRegistry()
	job.tracer = telemetry.NewTracer()
	m.classRunning[job.Kind]++
	m.running++
	m.runningSince[id] = job.Started
	m.runningG.Set(float64(m.running))
	if job.Stolen {
		m.stolenC.Inc()
		m.flight.Record("event", "serve.job.stolen", id, map[string]any{"epoch": job.epoch})
		m.logger.LogAttrs(context.Background(), slog.LevelInfo, "serve.job.stolen",
			slog.String("trace_id", id), slog.String("job_id", id),
			slog.Uint64("epoch", job.epoch))
	}
	m.mu.Unlock()

	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		defer m.limiter.Release()
		m.execute(job, *spec, l)
		m.mu.Lock()
		m.classRunning[job.Kind]--
		m.running--
		delete(m.runningSince, job.ID)
		m.runningG.Set(float64(m.running))
		m.mu.Unlock()
		m.kick()
	}()
	return true
}

// heartbeat renews the job's lease until stop closes. A failed renewal
// means a peer stole the job: the run context is cancelled so the
// now-ownerless work stops at its next cancellation point, and its
// result is discarded.
func (m *Manager) heartbeat(job *Job, l *lease.Lease, cancel context.CancelFunc, stop <-chan struct{}) {
	interval := m.cfg.LeaseTTL / 3
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		if err := l.Renew(); err != nil {
			m.leaseLostC.Inc()
			m.flight.Record("event", "serve.lease.lost", job.ID, map[string]any{"error": err.Error()})
			m.logger.LogAttrs(context.Background(), slog.LevelWarn, "serve.lease.lost",
				slog.String("trace_id", job.ID), slog.String("job_id", job.ID),
				slog.String("error", err.Error()))
			cancel()
			return
		}
	}
}

// execute runs one job to completion (or interruption) and records the
// outcome. Interrupted jobs keep their checkpoint journal and are
// re-queued by the next recover (or stolen by a peer); they never
// persist a result.
func (m *Manager) execute(job *Job, spec JobSpec, l *lease.Lease) {
	runCtx, cancel := context.WithCancel(m.ctx)
	defer cancel()
	stopBeat := make(chan struct{})
	beatDone := make(chan struct{})
	go func() {
		defer close(beatDone)
		m.heartbeat(job, l, cancel, stopBeat)
	}()

	start := time.Now()
	result, err := m.runJob(runCtx, job, spec)
	close(stopBeat)
	<-beatDone
	elapsed := time.Since(start).Seconds()
	m.jobSeconds.Observe(elapsed)

	// Classify before taking the lock. Any job still in flight when the
	// drain began is interrupted, even if it appears to have finished: a
	// cancellation landing mid-sweep taints the report, and
	// distinguishing a tainted result from a clean one that won the race
	// is not worth the risk of persisting the former. A lease loss is
	// the same shape with a different owner of the resume: the thief's
	// result (byte-identical by construction) is adopted by the scanner.
	draining := m.ctx.Err() != nil
	leaseLost := !draining && runCtx.Err() != nil && errors.Is(l.Renew(), lease.ErrLost)
	m.logJobOutcome(job, err, elapsed, draining || leaseLost)

	// A terminal outcome is written to the state directory before the
	// table says so, and outside the table lock: a status poll never
	// waits behind the fsync, and one that reads a terminal state finds
	// results/<id>.json in place.
	terminal := !draining && !leaseLost
	var doc resultDoc
	persisted := false
	if terminal {
		doc = resultDoc{ID: job.ID, Kind: job.Kind, State: StateDone, Instance: m.cfg.Instance,
			Progress: job.reg.Snapshot().Counters}
		if err != nil {
			doc.State, doc.Error = StateFailed, err.Error()
		} else {
			doc.Result, doc.ResultHash = result, jobID(checkpoint.HashBytes(result))
		}
		persisted = m.persistResult(doc)
		if err != nil {
			// A failed job's flight tail is the diagnosis artifact: dump it
			// before the ring forgets what led up to the failure.
			m.dumpFlight(job.ID, "job_failed", job.ID)
		}
	}

	m.mu.Lock()
	// EWMA with a 0.3 step: recent jobs dominate, one outlier does not.
	m.avgSeconds += 0.3 * (elapsed - m.avgSeconds)
	m.retryAfterLocked()
	job.Finished = time.Now()
	switch {
	case draining:
		job.State = StateInterrupted
		job.Err = "interrupted by shutdown; will resume on restart"
		m.interruptedC.Inc()
	case leaseLost:
		job.State = StateInterrupted
		job.Err = "lease lost; a peer instance stole the job"
		job.remote = true // the scanner adopts the thief's result
		m.interruptedC.Inc()
	default:
		if err != nil {
			m.failedC.Inc()
		} else {
			m.completedC.Inc()
		}
		m.finishLocked(job, doc, persisted)
		m.slo.Observe(SeriesSubmitComplete, job.Finished.Sub(job.Submitted).Seconds())
	}
	m.mu.Unlock()

	// Lease finalization happens outside the lock: it fsyncs. A finished
	// job's lease is removed for good — the result on disk is now the
	// authority; an interrupted job's is released as a tombstone so a
	// restarted instance (or a peer) takes over without a TTL wait. A
	// lost lease makes both a no-op.
	if terminal {
		l.Discard()
	} else {
		l.Release()
	}
}

// finishLocked reduces a job to its terminal header: state, error, hash,
// instance and final counters stay in the table; the spec and registry
// leave it, the spans move under the trace budget, and a result document
// goes to the result cache — or, when persisted is false and there is no
// file to re-read it from, stays pinned to the header. Callers adopting
// a document from disk pass it without its result: headers only.
func (m *Manager) finishLocked(job *Job, doc resultDoc, persisted bool) {
	job.State, job.Err, job.ResultHash = doc.State, doc.Error, doc.ResultHash
	if doc.Instance != "" {
		job.Instance = doc.Instance
	}
	job.progress = m.progressLocked(doc.Progress)
	if doc.Result != nil {
		if persisted {
			m.results.put(job.ID, doc.Result, int64(len(doc.Result)))
		} else {
			job.result = doc.Result
		}
	}
	if job.tracer != nil {
		m.traces.put(job.ID, job.tracer, int64(job.tracer.Len())*spanBytes)
	}
	job.spec, job.reg, job.tracer = nil, nil, nil
}

// logJobOutcome emits the job's lifecycle record and flight event.
func (m *Manager) logJobOutcome(job *Job, err error, elapsed float64, interrupted bool) {
	state := StateDone
	errText := ""
	switch {
	case interrupted:
		state = StateInterrupted
	case err != nil:
		state = StateFailed
		errText = err.Error()
	}
	attrs := map[string]any{"kind": job.Kind, "state": state, "elapsed_seconds": elapsed}
	if errText != "" {
		attrs["error"] = errText
	}
	m.flight.Record("event", "serve.job.finished", job.ID, attrs)
	logAttrs := []slog.Attr{
		slog.String("trace_id", job.ID),
		slog.String("job_id", job.ID),
		slog.String("kind", job.Kind),
		slog.String("state", state),
		slog.Any("elapsed_seconds", obslog.Volatile{Value: elapsed}),
	}
	if errText != "" {
		logAttrs = append(logAttrs, slog.String("error", errText))
	}
	level := slog.LevelInfo
	if state == StateFailed {
		level = slog.LevelWarn
	}
	m.logger.LogAttrs(context.Background(), level, "serve.job.finished", logAttrs...)
}

// sweepParked walks jobs this instance is not executing — parked
// behind a peer's lease, or interrupted after a lease loss — and
// either finalizes them from a result document a peer persisted, or
// reclaims them for local execution once the holder's lease expired or
// was released.
func (m *Manager) sweepParked() {
	m.mu.Lock()
	var parked []*Job
	for _, job := range m.jobs {
		if job.State == StateDone || job.State == StateFailed {
			continue
		}
		if job.queuedLocal {
			continue
		}
		if _, runningHere := m.runningSince[job.ID]; runningHere {
			continue
		}
		parked = append(parked, job)
	}
	m.mu.Unlock()

	for _, job := range parked {
		if doc, ok := m.loadResult(job.ID); ok && (doc.State == StateDone || doc.State == StateFailed) {
			m.finalizeRemote(job, doc)
			continue
		}
		info, status := m.leases.Read("job-" + job.ID)
		switch status {
		case lease.StatusLive, lease.StatusUnreadable:
			m.mu.Lock()
			if info.Instance != "" && !job.queuedLocal {
				job.Instance = info.Instance
				if job.State == StateQueued {
					// Visible to status queries: the job is executing, just
					// not here.
					job.State = StateRunning
					job.remote = true
				}
			}
			m.mu.Unlock()
		case lease.StatusAbsent, lease.StatusExpired, lease.StatusReleased:
			m.mu.Lock()
			if !job.queuedLocal && job.State != StateDone && job.State != StateFailed {
				if _, runningHere := m.runningSince[job.ID]; !runningHere {
					job.State = StateQueued
					job.Resumed = true
					m.enqueueLocked(job)
					m.kick()
				}
			}
			m.mu.Unlock()
		}
	}
}

// finalizeRemote adopts a peer-persisted terminal result into the
// local job table, so any instance can answer status queries for any
// job in the fleet.
func (m *Manager) finalizeRemote(job *Job, doc resultDoc) {
	finished := modTime(m.resultPath(job.ID))
	doc.Result = nil // headers only: the file keeps the result
	m.mu.Lock()
	defer m.mu.Unlock()
	if job.State == StateDone || job.State == StateFailed {
		return
	}
	if _, runningHere := m.runningSince[job.ID]; runningHere {
		return // dispatched since the sweep listed it; the local run finishes it
	}
	if job.queuedLocal {
		// Raced a local dispatch decision: drop it from our queues, the
		// result already exists.
		t := job.Tenant
		for i, qid := range m.queues[t] {
			if qid == job.ID {
				m.queues[t] = append(m.queues[t][:i], m.queues[t][i+1:]...)
				m.queuedTotal--
				m.queuedG.Set(float64(m.queuedTotal))
				break
			}
		}
		job.queuedLocal = false
		m.removeTenantLocked(t)
	}
	m.finishLocked(job, doc, false)
	job.remote = true
	job.Finished = finished
	m.remoteDoneC.Inc()
	m.flight.Record("event", "serve.job.remote_completed", job.ID,
		map[string]any{"instance": job.Instance, "state": doc.State})
}

// dumpFlight writes a flight-recorder dump (filtered to traceID when
// non-empty) to <state>/flight/<name>.json. Dump failures are counted,
// never fatal: diagnostics must not take down the service.
func (m *Manager) dumpFlight(name, reason, traceID string) {
	path := filepath.Join(m.cfg.StateDir, "flight", name+".json")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err == nil {
		err = m.flight.WriteJSON(f, reason, traceID)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		m.hooks.Counter("serve_flight_dump_errors_total").Inc()
	}
}
