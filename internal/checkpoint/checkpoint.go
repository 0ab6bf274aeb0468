// Package checkpoint makes long sweeps crash-safe: completed work-unit
// results are appended to a versioned, fsync'd JSONL journal as they
// finish, and a resumed run replays the journal to skip the units it
// already has. Replay is bit-exact — journaled results round-trip
// through JSON unchanged (encoding/json emits the shortest float64
// representation that round-trips) — so a sweep killed at an arbitrary
// point and resumed produces a report byte-identical to an
// uninterrupted run, at any worker count.
//
// Journal layout (one JSON object per line):
//
//	{"kind":"ropus-checkpoint","version":1,"run":"<hex run hash>"}
//	{"unit":"failure.scenario","key":"<hex>","sum":"<hex>","data":{...}}
//	...
//
// The header binds the journal to a run configuration: Open refuses to
// resume from a journal whose run hash differs (same seed, same
// inputs; worker counts are deliberately excluded by callers). Each
// record carries an FNV-1a checksum of its data bytes. The decoder
// tolerates exactly one torn tail line — the expected residue of a
// SIGKILL mid-write — and rejects corruption anywhere else.
//
// The package is stdlib-only and a nil *Journal is a no-op sink, so
// callers thread it unconditionally.
package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"sync"

	"ropus/internal/telemetry"
)

// Version is the journal format version this package writes.
const Version = 1

// kind guards against feeding an arbitrary JSONL file to Open.
const kind = "ropus-checkpoint"

// ErrRunMismatch reports a resume against a journal written by a
// different run configuration (different inputs, seeds or flags).
var ErrRunMismatch = errors.New("checkpoint: journal belongs to a different run configuration")

// ErrVersion reports a journal written by an unknown format version.
var ErrVersion = errors.New("checkpoint: unsupported journal version")

// ErrCorrupt reports a record that is unreadable for a reason other
// than a torn final line: bad JSON mid-file, a checksum mismatch, or a
// malformed key.
var ErrCorrupt = errors.New("checkpoint: corrupt journal record")

// header is the first line of every journal.
type header struct {
	Kind    string `json:"kind"`
	Version int    `json:"version"`
	Run     string `json:"run"`
}

// Record is one journaled work-unit result.
type Record struct {
	// Unit names the kind of work unit ("failure.scenario",
	// "planner.step", "experiments.table1", ...).
	Unit string `json:"unit"`
	// Key is the unit's FNV-1a content hash, in hex.
	Key string `json:"key"`
	// Sum is the FNV-1a checksum of Data, in hex.
	Sum string `json:"sum"`
	// Data is the unit's JSON-encoded result.
	Data json.RawMessage `json:"data"`
}

// Journal is an append-only checkpoint file plus the in-memory index of
// every record it already holds. It is safe for concurrent use; each
// append is flushed and fsync'd before Append returns, so a record is
// either durable or absent — never half-trusted.
type Journal struct {
	mu       sync.Mutex
	f        *os.File
	seen     map[string]json.RawMessage // unit + "\x00" + key -> data
	replayed int
	written  int
	hooks    telemetry.Hooks
}

// Open creates (resume=false) or opens-and-replays (resume=true) the
// journal at path for the run identified by runHash.
//
// With resume=false an existing file is truncated: the journal records
// this run only. With resume=true an existing journal is decoded — its
// header must match runHash or Open fails with ErrRunMismatch — and its
// records become available through Lookup; a missing file starts empty.
// hooks (nil ok) receives checkpoint_* counters.
func Open(path string, runHash uint64, resume bool, hooks telemetry.Hooks) (*Journal, error) {
	source := ""
	if resume {
		source = path
	}
	return OpenFrom(path, source, runHash, hooks)
}

// OpenFrom is Open whose replayed prefix is read from source, which may
// be another file: a stealing instance resumes from the previous
// owner's per-epoch journal while writing its continuation into its
// own. An empty source replays nothing.
func OpenFrom(path, source string, runHash uint64, hooks telemetry.Hooks) (*Journal, error) {
	j := &Journal{
		seen:  make(map[string]json.RawMessage),
		hooks: telemetry.OrNop(hooks),
	}
	if source != "" {
		if prev, err := os.Open(source); err == nil {
			run, records, derr := Decode(prev)
			prev.Close()
			if derr != nil {
				return nil, fmt.Errorf("checkpoint: resume %s: %w", source, derr)
			}
			if run != "" && run != hexU64(runHash) {
				return nil, fmt.Errorf("%w: journal run %s, this run %s (path %s)",
					ErrRunMismatch, run, hexU64(runHash), source)
			}
			for _, r := range records {
				j.seen[r.Unit+"\x00"+r.Key] = r.Data
			}
			j.replayed = len(records)
		} else if !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("checkpoint: resume %s: %w", source, err)
		}
	}

	// Rewrite the journal: header first, then the replayed records, so
	// the file never accumulates a stale torn tail and a second resume
	// sees a clean prefix. O_TRUNC + full rewrite keeps the invariant
	// "every line before the last is valid" without a compaction pass.
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: open %s: %w", path, err)
	}
	j.f = f
	hdr, err := json.Marshal(header{Kind: kind, Version: Version, Run: hexU64(runHash)})
	if err != nil {
		f.Close()
		return nil, err
	}
	lines := append(hdr, '\n')
	for key, data := range j.seen {
		unit, k, _ := bytes.Cut([]byte(key), []byte{0})
		line, err := encodeRecord(Record{Unit: string(unit), Key: string(k), Data: data})
		if err != nil {
			f.Close()
			return nil, err
		}
		lines = append(lines, line...)
	}
	if _, err := f.Write(lines); err != nil {
		f.Close()
		return nil, fmt.Errorf("checkpoint: write %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("checkpoint: sync %s: %w", path, err)
	}
	return j, nil
}

// Replayed returns the number of records loaded from a resumed journal.
func (j *Journal) Replayed() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.replayed
}

// Written returns the number of records appended by this process.
func (j *Journal) Written() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.written
}

// Lookup fetches the journaled result for (unit, key) into out and
// reports whether one was present. A nil journal never has entries.
func (j *Journal) Lookup(unit string, key uint64, out any) (bool, error) {
	if j == nil {
		return false, nil
	}
	j.mu.Lock()
	data, ok := j.seen[unit+"\x00"+hexU64(key)]
	j.mu.Unlock()
	if !ok {
		return false, nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return false, fmt.Errorf("checkpoint: decode %s[%s]: %w", unit, hexU64(key), err)
	}
	j.hooks.Counter("checkpoint_replayed_units_total").Inc()
	return true, nil
}

// Append journals one completed work-unit result. The record is
// durable (written, flushed, fsync'd) before Append returns. Appending
// to a nil journal is a no-op. A unit already present (journaled by the
// resumed run) is skipped silently, keeping replayed prefixes stable.
func (j *Journal) Append(unit string, key uint64, result any) error {
	if j == nil {
		return nil
	}
	data, err := json.Marshal(result)
	if err != nil {
		return fmt.Errorf("checkpoint: encode %s[%s]: %w", unit, hexU64(key), err)
	}
	line, err := encodeRecord(Record{Unit: unit, Key: hexU64(key), Data: data})
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	mapKey := unit + "\x00" + hexU64(key)
	if _, dup := j.seen[mapKey]; dup {
		return nil
	}
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("checkpoint: append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("checkpoint: sync: %w", err)
	}
	j.seen[mapKey] = data
	j.written++
	j.hooks.Counter("checkpoint_records_written_total").Inc()
	return nil
}

// Close releases the journal file. The journal stays valid on disk.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// encodeRecord renders one journal line, computing the data checksum.
func encodeRecord(r Record) ([]byte, error) {
	r.Sum = hexU64(fnvSum(r.Data))
	line, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	return append(line, '\n'), nil
}

// Decode reads a journal stream: the header line, then every record.
// It returns the header's run hash (hex; empty when the journal died
// before the header was durable) and the complete records. A torn
// final line (no trailing newline, or unparsable/checksum-bad in the
// last position) is tolerated and dropped — it is the footprint of a
// crash mid-append. Anything else unreadable fails with ErrCorrupt,
// and an unknown version with ErrVersion.
func Decode(r io.Reader) (run string, records []Record, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	readLine := func() ([]byte, bool, error) {
		line, err := br.ReadBytes('\n')
		switch {
		case err == nil:
			return line[:len(line)-1], true, nil
		case errors.Is(err, io.EOF):
			return line, false, nil // torn: no trailing newline
		default:
			return nil, false, err
		}
	}

	first, complete, err := readLine()
	if err != nil {
		return "", nil, err
	}
	var h header
	if uerr := json.Unmarshal(first, &h); uerr != nil || h.Kind != kind {
		if !complete {
			// A journal that died before the header fsync'd: empty.
			return "", nil, nil
		}
		return "", nil, fmt.Errorf("%w: bad header", ErrCorrupt)
	}
	if h.Version != Version {
		return "", nil, fmt.Errorf("%w: journal version %d, supported %d", ErrVersion, h.Version, Version)
	}
	if _, perr := strconv.ParseUint(h.Run, 16, 64); perr != nil {
		return "", nil, fmt.Errorf("%w: bad run hash %q", ErrCorrupt, h.Run)
	}
	run = h.Run

	for {
		line, complete, err := readLine()
		if err != nil {
			return "", nil, err
		}
		if len(line) == 0 {
			if !complete {
				return run, records, nil // clean EOF
			}
			return "", nil, fmt.Errorf("%w: empty line", ErrCorrupt)
		}
		var rec Record
		if uerr := parseRecord(line, &rec); uerr != nil {
			if !complete {
				return run, records, nil // torn tail: drop it
			}
			return "", nil, uerr
		}
		if !complete {
			// A fully parsable line without its newline is still the
			// torn tail of a crashed append; its fsync never finished,
			// so do not trust it.
			return run, records, nil
		}
		records = append(records, rec)
	}
}

// parseRecord decodes and verifies one record line.
func parseRecord(line []byte, rec *Record) error {
	if err := json.Unmarshal(line, rec); err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if rec.Unit == "" || len(rec.Data) == 0 {
		return fmt.Errorf("%w: missing unit or data", ErrCorrupt)
	}
	if _, err := strconv.ParseUint(rec.Key, 16, 64); err != nil {
		return fmt.Errorf("%w: bad key %q", ErrCorrupt, rec.Key)
	}
	if rec.Sum != hexU64(fnvSum(rec.Data)) {
		return fmt.Errorf("%w: checksum mismatch for %s[%s]", ErrCorrupt, rec.Unit, rec.Key)
	}
	return nil
}

// hexU64 renders a hash as fixed-width hex.
func hexU64(v uint64) string { return fmt.Sprintf("%016x", v) }

// ---------------------------------------------------------------------
// Content hashing: the same FNV-1a 64-bit fold the placement simulation
// cache keys with, exposed so callers can derive work-unit keys and run
// hashes from the inputs that actually determine the result.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// HashBytes returns the FNV-1a 64-bit hash of b — the fold journal
// records are checksummed with, exported so callers can fingerprint
// result documents the same way (the serving layer's result hashes).
func HashBytes(b []byte) uint64 { return fnvSum(b) }

// fnvSum hashes a byte slice.
func fnvSum(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// Hasher accumulates an FNV-1a content hash over typed fields. Each
// write is length- or type-delimited where ambiguity is possible, so
// ("ab","c") and ("a","bc") hash differently.
type Hasher struct{ h uint64 }

// NewHasher starts a hash at the FNV offset basis.
func NewHasher() *Hasher { return &Hasher{h: fnvOffset64} }

func (h *Hasher) u64(v uint64) *Hasher {
	for i := 0; i < 8; i++ {
		h.h ^= (v >> (8 * i)) & 0xff
		h.h *= fnvPrime64
	}
	return h
}

// Int folds an integer.
func (h *Hasher) Int(v int64) *Hasher { return h.u64(uint64(v)) }

// Float folds a float64 by bit pattern.
func (h *Hasher) Float(v float64) *Hasher { return h.u64(math.Float64bits(v)) }

// Floats folds a sample slice, length-delimited.
func (h *Hasher) Floats(vs []float64) *Hasher {
	h.Int(int64(len(vs)))
	for _, v := range vs {
		h.Float(v)
	}
	return h
}

// String folds a string, length-delimited.
func (h *Hasher) String(s string) *Hasher {
	h.Int(int64(len(s)))
	for i := 0; i < len(s); i++ {
		h.h ^= uint64(s[i])
		h.h *= fnvPrime64
	}
	return h
}

// Bool folds a boolean.
func (h *Hasher) Bool(v bool) *Hasher {
	if v {
		return h.Int(1)
	}
	return h.Int(0)
}

// Sum returns the accumulated hash.
func (h *Hasher) Sum() uint64 { return h.h }
