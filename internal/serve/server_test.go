package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// startServer builds and runs a Server on a loopback port, returning
// its base URL and a cancel that drains it.
func startServer(t *testing.T, cfg Config) (*Server, string, context.CancelFunc) {
	t.Helper()
	s, err := New("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("server run: %v", err)
		}
	})
	return s, "http://" + s.Addr(), cancel
}

func postJob(t *testing.T, base string, spec JobSpec) (*http.Response, JobStatus) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode job status: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp, st
}

func getJob(t *testing.T, base, id string) (JobStatus, int) {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return st, resp.StatusCode
}

func waitHTTPState(t *testing.T, base, id, want string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st, code := getJob(t, base, id)
		if code != http.StatusOK {
			t.Fatalf("GET job %s: %d", id, code)
		}
		if st.State == want {
			return st
		}
		if st.State == StateFailed && want != StateFailed {
			t.Fatalf("job %s failed: %s", id, st.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %q", id, want)
	return JobStatus{}
}

// TestHTTPEndToEnd drives the full HTTP surface: submit, dedup, status
// with progress, list without payloads, metrics, health, and the error
// paths (bad spec, unknown field, unknown job).
func TestHTTPEndToEnd(t *testing.T) {
	_, base, _ := startServer(t, Config{StateDir: t.TempDir(), Workers: 1})
	csv := fleetCSV(t, 4, 1, 5)

	resp, st := postJob(t, base, JobSpec{Kind: KindTranslate, TracesCSV: csv})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	if resp, st2 := postJob(t, base, JobSpec{Kind: KindTranslate, TracesCSV: csv}); resp.StatusCode != http.StatusOK || st2.ID != st.ID {
		t.Errorf("dedup resubmit: code=%d id=%s want %s", resp.StatusCode, st2.ID, st.ID)
	}
	done := waitHTTPState(t, base, st.ID, StateDone)
	if done.ResultHash == "" || len(done.Result) == 0 {
		t.Error("done job served without result")
	}

	// List drops result payloads but keeps every job.
	resp2, err := http.Get(base + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if len(list.Jobs) != 1 || list.Jobs[0].Result != nil {
		t.Errorf("list view: %d jobs, result leaked=%v", len(list.Jobs), list.Jobs[0].Result != nil)
	}

	// Metrics expose the serve_* family in Prometheus text format.
	resp3, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	for _, want := range []string{"serve_jobs_submitted_total 1", "serve_jobs_completed_total 1", "serve_http_requests_total"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	resp4, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	json.NewDecoder(resp4.Body).Decode(&health)
	resp4.Body.Close()
	if health["status"] != "ok" || health["draining"] != false {
		t.Errorf("healthz: %v", health)
	}

	if resp, _ := postJob(t, base, JobSpec{Kind: "mine-bitcoin", TracesCSV: csv}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad kind: %d", resp.StatusCode)
	}
	r, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(`{"kind":"translate","bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: %d", r.StatusCode)
	}
	if _, code := getJob(t, base, "deadbeefdeadbeef"); code != http.StatusNotFound {
		t.Errorf("unknown job: %d", code)
	}
}

// TestHTTPBurst is the acceptance gate: 100 concurrent submissions
// against a small queue must produce only 202/200/429 (no 5xx), and
// every accepted job must finish — accepted work is never lost.
func TestHTTPBurst(t *testing.T) {
	_, base, _ := startServer(t, Config{
		StateDir:      t.TempDir(),
		Workers:       1,
		QueueDepth:    16,
		MaxConcurrent: 4,
	})

	// 25 distinct specs, each submitted 4 times concurrently: dedup and
	// admission race on purpose.
	specs := make([]JobSpec, 25)
	for i := range specs {
		specs[i] = JobSpec{Kind: KindTranslate, TracesCSV: fleetCSV(t, 3, 1, int64(100+i))}
	}

	type outcome struct {
		code       int
		id         string
		retryAfter string
	}
	outcomes := make([]outcome, 100)
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(specs[i%len(specs)])
			resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			o := outcome{code: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
			if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
				var st JobStatus
				if err := json.NewDecoder(resp.Body).Decode(&st); err == nil {
					o.id = st.ID
				}
			} else {
				io.Copy(io.Discard, resp.Body)
			}
			outcomes[i] = o
		}(i)
	}
	wg.Wait()

	accepted := map[string]bool{}
	var shed int
	for i, o := range outcomes {
		switch o.code {
		case http.StatusAccepted, http.StatusOK:
			if o.id == "" {
				t.Errorf("submission %d accepted without an ID", i)
			}
			accepted[o.id] = true
		case http.StatusTooManyRequests:
			shed++
			if secs, err := strconv.Atoi(o.retryAfter); err != nil || secs < 1 || secs > 60 {
				t.Errorf("shed submission %d: Retry-After %q", i, o.retryAfter)
			}
		default:
			t.Errorf("submission %d: status %d", i, o.code)
		}
	}
	if len(accepted) == 0 {
		t.Fatal("burst admitted nothing")
	}
	t.Logf("burst: %d unique accepted, %d shed", len(accepted), shed)

	// No accepted job may be lost: each reaches done.
	for id := range accepted {
		waitHTTPState(t, base, id, StateDone)
	}
}

// TestHTTPDrainAndRestart exercises the full service contract: SIGTERM
// (ctx cancel) mid-sweep drains the server, a second server on the same
// state dir resumes the journaled job, and the resumed result is
// byte-identical to an undisturbed run.
func TestHTTPDrainAndRestart(t *testing.T) {
	dir := t.TempDir()
	csv := fleetCSV(t, 6, 1, 7)
	spec := JobSpec{Kind: KindFailover, TracesCSV: csv}

	// Baseline hash from an undisturbed manager on its own state dir.
	base := newTestManager(t, nil)
	startManager(t, base)
	baseSt, _, err := base.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := waitState(t, base, baseSt.ID, StateDone)

	s1, url1, cancel1 := startServer(t, Config{
		StateDir: dir, Workers: 1,
		Inject: slowSweeps(250 * time.Millisecond),
	})
	resp, st := postJob(t, url1, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	waitFor(t, "first checkpoint record over HTTP", func() bool {
		got, code := getJob(t, url1, st.ID)
		return code == http.StatusOK && got.Progress["checkpoint_records_written_total"] >= 1
	})
	cancel1()
	s1.mgr.Wait()

	// Draining servers refuse new work with 503 + Retry-After.
	// (The listener may already be closed; only assert when reachable.)
	if resp, err := http.Post(url1+"/v1/jobs", "application/json", strings.NewReader(`{}`)); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("draining submit: %d", resp.StatusCode)
		}
	}

	_, url2, _ := startServer(t, Config{StateDir: dir, Workers: 1})
	final := waitHTTPState(t, url2, st.ID, StateDone)
	if final.ResultHash != want.ResultHash {
		t.Errorf("resumed hash %s != uninterrupted %s", final.ResultHash, want.ResultHash)
	}
	if string(final.Result) != string(want.Result) {
		t.Error("resumed result bytes differ from uninterrupted run")
	}
}

// TestSSEJobEvents: the events stream emits at least one status event,
// ends with a terminal event when the job finishes, and 404s for
// unknown jobs. Result payloads never ride the stream.
func TestSSEJobEvents(t *testing.T) {
	_, base, _ := startServer(t, Config{
		StateDir: t.TempDir(), Workers: 1,
		SSEPoll: 20 * time.Millisecond,
	})
	resp, st := postJob(t, base, JobSpec{Kind: KindTranslate, TracesCSV: fleetCSV(t, 4, 1, 5)})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}

	stream, err := http.Get(base + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(stream.Body) // server closes the stream at the terminal event
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if !strings.Contains(text, "event: status") {
		t.Error("stream carried no status events")
	}
	if !strings.Contains(text, "event: end") || !strings.Contains(text, `"state":"done"`) {
		t.Errorf("stream did not end with the terminal event:\n%s", text)
	}
	if strings.Contains(text, `"result":`) {
		t.Error("result payload leaked into the event stream")
	}
	// Every status event must parse and carry the job's ID.
	for _, line := range strings.Split(text, "\n") {
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok || strings.Contains(data, `"state":"done"`) && !strings.Contains(data, `"id"`) {
			continue
		}
		var ev map[string]any
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Errorf("unparseable event %q: %v", data, err)
		}
	}

	if r, err := http.Get(base + "/v1/jobs/deadbeefdeadbeef/events"); err == nil {
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Errorf("unknown job events: %d", r.StatusCode)
		}
	}
}

// TestServerRejectsBadConfig: a server without a state dir never binds.
func TestServerRejectsBadConfig(t *testing.T) {
	if _, err := New("127.0.0.1:0", Config{}); err == nil {
		t.Fatal("server accepted empty StateDir")
	}
}

// TestServingDocJobSpec posts the job spec docs/SERVING.md shows, so the
// example cannot drift from what admission accepts.
func TestServingDocJobSpec(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "SERVING.md"))
	if err != nil {
		t.Fatal(err)
	}
	var body string
	for _, block := range strings.Split(string(doc), "```json\n")[1:] {
		block, _, _ = strings.Cut(block, "```")
		if strings.Contains(block, `"tracesCsv"`) {
			body = block
			break
		}
	}
	if body == "" {
		t.Fatal("docs/SERVING.md shows no JSON job spec")
	}
	_, base, _ := startServer(t, Config{StateDir: t.TempDir(), Workers: 1})
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	answer, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("the documented job spec answered %d: %s", resp.StatusCode, answer)
	}
	var st JobStatus
	if err := json.Unmarshal(answer, &st); err != nil {
		t.Fatal(err)
	}
	waitHTTPState(t, base, st.ID, StateDone)
}
