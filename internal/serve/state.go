package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// State directory layout (shared by every fleet instance):
//
//	<state>/jobs/<id>.json          submitted spec (written at admission)
//	<state>/results/<id>.json       result document (written at completion)
//	<state>/ckpt/<id>.e<N>.ckpt     checkpoint journal of lease epoch N
//	<state>/ckpt/<id>.ckpt          legacy pre-fleet journal (epoch 0)
//	<state>/leases/job-<id>.e<N>.lease  ownership record of lease epoch N (highest = holder)
//
// A job with a spec but no result is unfinished: the scanner adopts it
// and any instance that wins the lease runs it. Journals are written
// per lease epoch so a zombie holder's appends land in its own file and
// can never interleave with the thief's journal; a new epoch resumes by
// replaying the highest decodable prior epoch, so the re-run is
// byte-identical to an uninterrupted one.

func (m *Manager) specPath(id string) string {
	return filepath.Join(m.cfg.StateDir, "jobs", id+".json")
}

func (m *Manager) resultPath(id string) string {
	return filepath.Join(m.cfg.StateDir, "results", id+".json")
}

// ckptPath names the journal of one lease epoch. Epoch zero is the
// pre-fleet layout, kept readable so journals written before the lease
// protocol existed still resume.
func (m *Manager) ckptPath(id string, epoch uint64) string {
	if epoch == 0 {
		return filepath.Join(m.cfg.StateDir, "ckpt", id+".ckpt")
	}
	return filepath.Join(m.cfg.StateDir, "ckpt", fmt.Sprintf("%s.e%d.ckpt", id, epoch))
}

// ckptCandidates lists the job's journals from prior epochs, newest
// epoch first — the resume order for a stealing instance. The current
// epoch's own file is excluded.
func (m *Manager) ckptCandidates(id string, below uint64) []string {
	matches, _ := filepath.Glob(filepath.Join(m.cfg.StateDir, "ckpt", id+"*.ckpt"))
	type cand struct {
		epoch uint64
		path  string
	}
	var cands []cand
	for _, path := range matches {
		name := filepath.Base(path)
		rest, ok := strings.CutPrefix(name, id)
		if !ok {
			continue
		}
		var epoch uint64
		switch {
		case rest == ".ckpt":
			epoch = 0
		case strings.HasPrefix(rest, ".e") && strings.HasSuffix(rest, ".ckpt"):
			n, err := strconv.ParseUint(rest[2:len(rest)-len(".ckpt")], 10, 64)
			if err != nil {
				continue
			}
			epoch = n
		default:
			continue
		}
		if epoch >= below {
			continue
		}
		cands = append(cands, cand{epoch, path})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].epoch > cands[j].epoch })
	paths := make([]string, len(cands))
	for i, c := range cands {
		paths[i] = c.path
	}
	return paths
}

// removeCkpts drops every epoch's journal for a finished job.
func (m *Manager) removeCkpts(id string) {
	matches, _ := filepath.Glob(filepath.Join(m.cfg.StateDir, "ckpt", id+"*.ckpt"))
	for _, path := range matches {
		os.Remove(path)
	}
}

// resultDoc is the persisted form of a finished job.
type resultDoc struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State string `json:"state"` // done or failed
	// Instance records which fleet member completed the job.
	Instance   string          `json:"instance,omitempty"`
	Error      string          `json:"error,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
	ResultHash string          `json:"resultHash,omitempty"`
	// Progress is the run's final telemetry counters: the status
	// endpoint's progress block, whoever answers and whenever.
	Progress map[string]int64 `json:"progress,omitempty"`
}

// writeAtomic lands data at path via a temp file, fsync and rename, so
// a crash mid-write leaves either the old content or the new — never a
// torn file that recovery would misread.
func writeAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// persistSpec makes an admitted job durable before Submit acknowledges
// it: an accepted job must survive a crash, and peers adopt it from
// this file.
func (m *Manager) persistSpec(id string, spec JobSpec) error {
	data, err := json.Marshal(spec)
	if err != nil {
		return fmt.Errorf("serve: encode spec: %w", err)
	}
	if err := writeAtomic(m.specPath(id), data); err != nil {
		return fmt.Errorf("serve: persist spec: %w", err)
	}
	return nil
}

// persistResult records a finished job's document and reports whether
// it landed. A write failure is counted, not fatal: the job table pins
// the result for status queries instead, and a restart simply re-runs
// the job. Concurrent writers (a zombie racing the thief) are harmless:
// results are deterministic functions of the spec, so both write the
// same result bytes, and writeAtomic's rename makes each replacement
// whole. It does file I/O, so callers must not hold m.mu.
func (m *Manager) persistResult(doc resultDoc) bool {
	data, err := json.Marshal(doc)
	if m.cfg.Inject != nil && err == nil {
		o := m.cfg.Inject.Hit("serve.result.write", doc.ID)
		if o.Delay > 0 {
			time.Sleep(o.Delay)
		}
		err = o.Err
	}
	if err == nil {
		err = writeAtomic(m.resultPath(doc.ID), data)
	}
	if err != nil {
		m.hooks.Counter("serve_state_write_errors_total").Inc()
		return false
	}
	// The finished journals have served their purpose; drop every
	// epoch's file so the state directory does not accumulate one
	// journal per historical job attempt.
	m.removeCkpts(doc.ID)
	return true
}

// scanDisk reconciles the job table with the shared state directory.
// On the initial call (construction) unfinished jobs are re-queued
// marked Resumed, exactly like the single-instance recover of old. On
// scanner ticks it adopts jobs a peer admitted — finished ones become
// queryable, unfinished ones are enqueued locally and the job lease
// decides who actually runs them. A spec that no longer hashes to its
// filename is quarantined rather than trusted: it was torn or tampered
// with.
func (m *Manager) scanDisk(initial bool) error {
	entries, err := os.ReadDir(filepath.Join(m.cfg.StateDir, "jobs"))
	if err != nil {
		if initial {
			return fmt.Errorf("serve: recover: %w", err)
		}
		m.hooks.Counter("serve_state_read_errors_total").Inc()
		return err
	}
	ids := make([]string, 0, len(entries))
	for _, e := range entries {
		if name, ok := strings.CutSuffix(e.Name(), ".json"); ok && !e.IsDir() {
			ids = append(ids, name)
		}
	}
	sort.Strings(ids)

	adopted := false
	for _, id := range ids {
		m.mu.Lock()
		_, known := m.jobs[id]
		m.mu.Unlock()
		if known {
			continue
		}
		data, err := os.ReadFile(m.specPath(id))
		if err != nil {
			if initial {
				return fmt.Errorf("serve: recover %s: %w", id, err)
			}
			continue // raced a quarantine or an external cleanup
		}
		var spec JobSpec
		if uerr := json.Unmarshal(data, &spec); uerr != nil {
			m.quarantine(id)
			continue
		}
		spec.normalize()
		set, perr := spec.parse()
		if perr != nil || jobID(spec.Key(set)) != id {
			m.quarantine(id)
			continue
		}
		job := &Job{ID: id, Kind: spec.Kind, Tenant: spec.Tenant, Submitted: modTime(m.specPath(id))}
		doc, finished := m.loadResult(id)
		finished = finished && (doc.State == StateDone || doc.State == StateFailed)
		if finished {
			// Headers only: the state directory keeps the spec and the
			// result, and a status query re-reads the result on demand.
			doc.Result = nil
			job.remote = doc.Instance != "" && doc.Instance != m.cfg.Instance
			job.Finished = modTime(m.resultPath(id))
		} else {
			job.spec = &spec
			job.State = StateQueued
			job.Resumed = initial
		}
		m.mu.Lock()
		if _, dup := m.jobs[id]; dup {
			// Raced a local Submit between our read and now; the table
			// entry from Submit wins.
			m.mu.Unlock()
			continue
		}
		if finished {
			m.finishLocked(job, doc, false)
		}
		m.jobs[id] = job
		m.order = append(m.order, id)
		if job.State == StateQueued {
			m.enqueueLocked(job)
			if !initial {
				adopted = true
				m.adoptedC.Inc()
				m.flight.Record("event", "serve.job.adopted", id, map[string]any{"kind": spec.Kind, "tenant": job.Tenant})
			}
		}
		m.mu.Unlock()
	}
	if adopted {
		m.kick()
	}
	return nil
}

// loadResult reads a persisted result document; a missing or unreadable
// file means the job is unfinished.
func (m *Manager) loadResult(id string) (resultDoc, bool) {
	data, err := os.ReadFile(m.resultPath(id))
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			m.hooks.Counter("serve_state_read_errors_total").Inc()
		}
		return resultDoc{}, false
	}
	var doc resultDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		m.hooks.Counter("serve_state_read_errors_total").Inc()
		return resultDoc{}, false
	}
	return doc, true
}

// quarantine sidelines an unreadable spec file so recovery is not
// wedged on it forever. The event is surfaced three ways: the legacy
// corrupt-spec counter, the quarantine counter the fleet dashboards
// watch, and a structured warning carrying the quarantined path so an
// operator can find the sidelined file without grepping the state dir.
func (m *Manager) quarantine(id string) {
	quarantined := m.specPath(id) + ".corrupt"
	m.hooks.Counter("serve_state_corrupt_specs_total").Inc()
	m.hooks.Counter("serve_state_quarantined_total").Inc()
	err := os.Rename(m.specPath(id), quarantined)
	attrs := []slog.Attr{
		slog.String("job_id", id),
		slog.String("quarantined_path", quarantined),
	}
	if err != nil {
		attrs = append(attrs, slog.String("error", err.Error()))
	}
	m.logger.LogAttrs(context.Background(), slog.LevelWarn, "serve.state.quarantined", attrs...)
}

func modTime(path string) time.Time {
	if info, err := os.Stat(path); err == nil {
		return info.ModTime()
	}
	return time.Time{}
}
