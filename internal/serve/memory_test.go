package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ropus/internal/faultinject"
	"ropus/internal/telemetry"
)

// liveHeap is the heap still reachable after two collections (the
// second empties the sync.Pool victim caches the first one filled).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestFinishedJobHeapFlat: a finished job costs its header. Jobs whose
// specs each carry their own ≥ 64 KB of trace CSV may grow the post-GC
// heap by at most 4 KB a job, header and final progress counters
// included, once the bounded residents (flight ring, SLO windows) are
// full.
func TestFinishedJobHeapFlat(t *testing.T) {
	m := newTestManager(t, func(c *Config) {
		c.FlightEvents = 256
		c.SLOWindow = 64
	})
	// With both budgets at zero a finished job keeps its header alone.
	m.results = newByteLRU[json.RawMessage](0)
	m.traces = newByteLRU[*telemetry.Tracer](0)
	startManager(t, m)
	csv := fleetCSV(t, 12, 2, 7)
	if len(csv) < 64<<10 {
		t.Fatalf("trace CSV is %d bytes, want >= 64 KB", len(csv))
	}
	run := func(from, to int) {
		for i := from; i < to; i++ {
			// Each spec owns its trace bytes, as a decoded request body does.
			st, _, err := m.Submit(JobSpec{Kind: KindTranslate, TracesCSV: strings.Clone(csv), GASeed: int64(i + 1)})
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, m, st.ID, StateDone)
		}
	}
	run(0, 40)
	before := liveHeap()
	const jobs = 200
	run(40, 40+jobs)
	after := liveHeap()
	perJob := (int64(after) - int64(before)) / jobs
	t.Logf("post-GC heap %d -> %d bytes over %d finished jobs: %d B/job", before, after, jobs, perJob)
	if perJob > 4<<10 {
		t.Errorf("each finished job keeps %d bytes of heap, want <= 4096", perJob)
	}
}

// runServer is startServer with a stop that waits for the drain, so a
// test can restart a server on the same state directory.
func runServer(t *testing.T, cfg Config) (*Server, string, func()) {
	t.Helper()
	s, err := New("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			cancel()
			if err := <-done; err != nil {
				t.Errorf("server run: %v", err)
			}
		})
	}
	t.Cleanup(stop)
	return s, "http://" + s.Addr(), stop
}

// answer is what every answer about a finished job must agree on, as the
// bytes the server sent.
type answer struct {
	Result     json.RawMessage `json:"result"`
	ResultHash json.RawMessage `json:"resultHash"`
	Progress   json.RawMessage `json:"progress"`
}

func (a answer) String() string {
	return "result " + string(a.Result) + " resultHash " + string(a.ResultHash) + " progress " + string(a.Progress)
}

// answers fetches a finished job twice: GET /v1/jobs/{id} and the dedup
// answer to resubmitting its spec.
func answers(t *testing.T, base, id string, spec JobSpec) (get, dedup answer) {
	t.Helper()
	decode := func(what string, resp *http.Response, err error) answer {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d %s", what, resp.StatusCode, body)
		}
		var a answer
		if err := json.Unmarshal(body, &a); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if len(a.Result) == 0 || len(a.ResultHash) == 0 || len(a.Progress) == 0 {
			t.Fatalf("%s of a finished job lacks a field: %s", what, a)
		}
		return a
	}
	resp, err := http.Get(base + "/v1/jobs/" + id)
	get = decode("GET", resp, err)
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	dedup = decode("resubmission", resp, err)
	return get, dedup
}

func sameAnswer(t *testing.T, what string, got, want answer) {
	t.Helper()
	if !bytes.Equal(got.Result, want.Result) || !bytes.Equal(got.ResultHash, want.ResultHash) ||
		!bytes.Equal(got.Progress, want.Progress) {
		t.Errorf("%s:\n got %s\nwant %s", what, got, want)
	}
}

// finishedJob runs one translate job through the server and returns its
// spec and ID.
func finishedJob(t *testing.T, base string) (JobSpec, string) {
	t.Helper()
	spec := JobSpec{Kind: KindTranslate, TracesCSV: fleetCSV(t, 4, 1, 5)}
	resp, st := postJob(t, base, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	waitHTTPState(t, base, st.ID, StateDone)
	return spec, st.ID
}

// evictResults fills the result cache with one budget-sized entry,
// pushing every result document out of memory.
func evictResults(m *Manager) { m.results.put("filler", nil, resultCacheBytes) }

func TestResultBytesResident(t *testing.T) {
	s, base, _ := runServer(t, Config{StateDir: t.TempDir(), Workers: 1})
	spec, id := finishedJob(t, base)
	if _, ok := s.Manager().results.get(id); !ok {
		t.Fatal("a just-finished job's result is not in the result cache")
	}
	get, dedup := answers(t, base, id, spec)
	sameAnswer(t, "dedup answer vs GET", dedup, get)
}

func TestResultBytesAfterEviction(t *testing.T) {
	s, base, _ := runServer(t, Config{StateDir: t.TempDir(), Workers: 1})
	m := s.Manager()
	spec, id := finishedJob(t, base)
	resident, _ := answers(t, base, id, spec)

	evictResults(m)
	if _, ok := m.results.get(id); ok {
		t.Fatal("result still cached after eviction")
	}
	get, dedup := answers(t, base, id, spec)
	sameAnswer(t, "GET re-read after eviction", get, resident)
	sameAnswer(t, "dedup answer re-read after eviction", dedup, resident)

	// The re-read needs no table lock: it completes while the test holds
	// m.mu.
	evictResults(m)
	st, _ := m.status(id)
	reread := make(chan JobStatus, 1)
	m.mu.Lock()
	go func() { reread <- m.withResult(st) }()
	select {
	case got := <-reread:
		m.mu.Unlock()
		if !bytes.Equal(got.Result, resident.Result) {
			t.Errorf("re-read under a held table lock: %s", got.Result)
		}
	case <-time.After(10 * time.Second):
		m.mu.Unlock()
		t.Fatal("re-reading an evicted result waited on the table lock")
	}
}

func TestResultBytesAfterRestart(t *testing.T) {
	dir := t.TempDir()
	_, base, stop := runServer(t, Config{StateDir: dir, Workers: 1})
	spec, id := finishedJob(t, base)
	before, _ := answers(t, base, id, spec)
	stop()

	s, base, _ := runServer(t, Config{StateDir: dir, Workers: 1})
	if _, ok := s.Manager().results.get(id); ok {
		t.Fatal("recovery loaded a result body; it should load headers only")
	}
	get, dedup := answers(t, base, id, spec)
	sameAnswer(t, "GET after restart", get, before)
	sameAnswer(t, "dedup answer after restart", dedup, before)
}

// TestResultWrittenBeforeDone: the result document is written outside
// the table lock and before the state flips, so a status poll neither
// waits behind the write nor reads done before results/<id>.json exists.
func TestResultWrittenBeforeDone(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	inject := faultinject.Func(func(point, key string) faultinject.Outcome {
		if point == "serve.result.write" {
			once.Do(func() { close(entered) })
			<-release
		}
		return faultinject.Outcome{}
	})
	m := newTestManager(t, func(c *Config) { c.Inject = inject })
	startManager(t, m)
	st, _, err := m.Submit(JobSpec{Kind: KindTranslate, TracesCSV: fleetCSV(t, 4, 1, 5)})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(60 * time.Second):
		t.Fatal("job never reached its result write")
	}

	polled := make(chan JobStatus, 1)
	go func() {
		s, _ := m.Job(st.ID)
		polled <- s
	}()
	select {
	case s := <-polled:
		if s.State != StateRunning {
			t.Errorf("poll during the result write read %q, want running", s.State)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a status poll waited behind the result write")
	}
	if _, err := os.Stat(m.resultPath(st.ID)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("result file exists before its write: %v", err)
	}

	close(release)
	deadline := time.Now().Add(60 * time.Second)
	for {
		s, _ := m.Job(st.ID)
		if s.State == StateDone {
			if _, err := os.Stat(m.resultPath(st.ID)); err != nil {
				t.Fatalf("status read done before the result file landed: %v", err)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", s.State)
		}
	}
}

// TestResultWriteFailurePinsResult: a result that could not be written
// stays in the job table, since there is no file to re-read it from.
func TestResultWriteFailurePinsResult(t *testing.T) {
	inject := faultinject.Func(func(point, key string) faultinject.Outcome {
		if point == "serve.result.write" {
			return faultinject.Outcome{Err: faultinject.ErrInjected}
		}
		return faultinject.Outcome{}
	})
	m := newTestManager(t, func(c *Config) { c.Inject = inject })
	startManager(t, m)
	spec := JobSpec{Kind: KindTranslate, TracesCSV: fleetCSV(t, 4, 1, 5)}
	st, _, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := waitState(t, m, st.ID, StateDone)
	if _, err := os.Stat(m.resultPath(st.ID)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("result file written despite the injected failure: %v", err)
	}
	evictResults(m)
	dedup, _, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(done.Result) == 0 || !bytes.Equal(dedup.Result, done.Result) || dedup.ResultHash != done.ResultHash {
		t.Errorf("pinned result lost: got %q / %s, want %q / %s", dedup.Result, dedup.ResultHash, done.Result, done.ResultHash)
	}
}

// TestTraceBudgetEvicts: a finished job's spans live inside the trace
// budget; once evicted, its trace answers 404 like a recovered job's.
func TestTraceBudgetEvicts(t *testing.T) {
	s, base, _ := runServer(t, Config{StateDir: t.TempDir(), Workers: 1})
	_, id := finishedJob(t, base)
	traceCode := func() int {
		resp, err := http.Get(base + "/v1/jobs/" + id + "/trace")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := traceCode(); code != http.StatusOK {
		t.Fatalf("trace of a just-finished job: %d", code)
	}
	s.Manager().traces.put("filler", nil, traceBudgetBytes)
	if code := traceCode(); code != http.StatusNotFound {
		t.Errorf("trace evicted from the budget answered %d, want 404", code)
	}
}

func TestByteLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := newByteLRU[int](10)
	c.put("a", 1, 4)
	c.put("b", 2, 4)
	c.get("a") // b is now the least recently used
	c.put("c", 3, 4)
	if _, ok := c.get("b"); ok {
		t.Error("b survived an eviction it was first in line for")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.get(k); !ok {
			t.Errorf("%s evicted", k)
		}
	}
	c.put("huge", 0, 11)
	if _, ok := c.get("huge"); ok || c.bytes != 8 {
		t.Errorf("a value over the whole budget was kept (or evicted others): %d bytes", c.bytes)
	}
	c.put("a", 1, 6) // replacing a charges its new size
	if v, ok := c.get("a"); !ok || v != 1 || c.bytes != 10 {
		t.Errorf("replace: a=%d,%v with %d bytes charged, want 10", v, ok, c.bytes)
	}
}

// TestByteLRUConcurrent: status handlers and executors share the caches;
// whatever the interleaving, the charge stays within the limit and the
// index matches the list.
func TestByteLRUConcurrent(t *testing.T) {
	c := newByteLRU[int](64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				key := strconv.Itoa((g*7 + i) % 50)
				c.put(key, i, int64(1+i%8))
				c.get(key)
			}
		}(g)
	}
	wg.Wait()
	var charged int64
	for el := c.order.Front(); el != nil; el = el.Next() {
		charged += el.Value.(*lruEntry[int]).size
	}
	if c.bytes > c.limit || charged != c.bytes || c.order.Len() != len(c.items) {
		t.Errorf("after concurrent use: %d bytes charged (%d summed) of %d, %d listed, %d indexed",
			c.bytes, charged, c.limit, c.order.Len(), len(c.items))
	}
}
