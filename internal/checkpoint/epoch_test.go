package checkpoint

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestResumeFromOtherPath: a stealing instance replays the previous
// owner's per-epoch journal while writing its continuation into its
// own file; the source is left untouched.
func TestResumeFromOtherPath(t *testing.T) {
	dir := t.TempDir()
	prev := filepath.Join(dir, "job.e1.ckpt")
	j1, err := Open(prev, 42, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j1.Append("scenario", uint64(i), i*i); err != nil {
			t.Fatal(err)
		}
	}
	j1.Close()
	before, err := os.ReadFile(prev)
	if err != nil {
		t.Fatal(err)
	}

	next := filepath.Join(dir, "job.e2.ckpt")
	j2, err := OpenFrom(next, prev, 42, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.Replayed(); got != 3 {
		t.Fatalf("replayed %d records, want 3", got)
	}
	var v int
	if ok, err := j2.Lookup("scenario", 1, &v); err != nil || !ok || v != 1 {
		t.Fatalf("lookup replayed record: ok=%v v=%d err=%v", ok, v, err)
	}
	if err := j2.Append("scenario", 3, 9); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(prev)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Error("resume-from mutated the source journal")
	}
	// The thief's journal holds the replayed prefix and its own append.
	f, _ := os.Open(next)
	defer f.Close()
	_, records, err := Decode(f)
	if err != nil || len(records) != 4 {
		t.Fatalf("thief journal: records=%d err=%v", len(records), err)
	}
	// A mismatched run hash is still rejected across files.
	if _, err := OpenFrom(filepath.Join(dir, "job.e3.ckpt"), prev, 99, nil); err == nil {
		t.Error("resume-from accepted a journal of a different run")
	}
}

// TestConcurrentReadersSeeNoTornTail (satellite): one writer appends to
// a journal while two readers repeatedly decode the same file — the
// exact access pattern of a fleet instance scanning a peer's in-flight
// checkpoint journal before a steal. Every read must either decode
// cleanly to a prefix of the appended sequence (the fsync'd records)
// or, at worst, drop the single in-flight tail line — never fail, and
// never surface a torn or reordered record. Run under -race.
func TestConcurrentReadersSeeNoTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shared.ckpt")
	const total = 150
	j, err := Open(path, 7, false, nil)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				f, err := os.Open(path)
				if err != nil {
					t.Errorf("reader %d: open: %v", r, err)
					return
				}
				run, records, derr := Decode(bufio.NewReader(f))
				f.Close()
				if derr != nil {
					t.Errorf("reader %d: decode mid-append failed: %v", r, derr)
					return
				}
				if run != hexU64(7) {
					t.Errorf("reader %d: header run=%s", r, run)
					return
				}
				if len(records) > total {
					t.Errorf("reader %d: %d records, wrote at most %d", r, len(records), total)
					return
				}
				// Records must be the exact in-order prefix: record i is
				// ("scenario", key=i, data=i*3). Anything else is a torn or
				// interleaved read.
				for i, rec := range records {
					var v int
					if rec.Unit != "scenario" || rec.Key != hexU64(uint64(i)) {
						t.Errorf("reader %d: record %d is %s[%s], want scenario[%s]",
							r, i, rec.Unit, rec.Key, hexU64(uint64(i)))
						return
					}
					if err := json.Unmarshal(rec.Data, &v); err != nil || v != i*3 {
						t.Errorf("reader %d: record %d data %s (err %v), want %d", r, i, rec.Data, err, i*3)
						return
					}
				}
			}
		}(r)
	}

	for i := 0; i < total; i++ {
		if err := j.Append("scenario", uint64(i), i*3); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	j.Close()

	// After the writer is done a final read sees every record.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	_, records, err := Decode(f)
	if err != nil || len(records) != total {
		t.Fatalf("final decode: %d records err=%v, want %d", len(records), err, total)
	}
}
