// Package lease implements leased ownership of named resources over a
// shared directory, the coordination primitive behind fleet-mode
// `ropus serve`: N instances share one state directory, and a lease
// decides which instance owns a queued job at any moment.
//
// A lease is a chain of small fsync'd JSON files, one per ownership
// epoch, named <name>.e<N>.lease: each names the instance that held
// epoch N, its heartbeat timestamp and its TTL, plus an FNV checksum of
// all of the above. The holder is the highest epoch present. The
// protocol needs nothing beyond POSIX file semantics — no flock, no
// network — so it works on any filesystem the instances share:
//
//   - Claim: having read epoch N as absent (N = 0), released or expired,
//     write a unique temp file, fsync it, and os.Link it to the epoch
//     N+1 path. Link fails if that path exists, so the link is the whole
//     arbitration: at most one claimant ever holds an epoch, however
//     stale the read a loser acted on, and epochs cannot regress.
//     Claiming past an expired epoch is a steal.
//   - Renew: the holder rewrites its file through its still-open file
//     descriptor, then verifies that its path still resolves to that
//     inode and that no epoch N+1 file exists. A holder whose lease was
//     stolen sees the successor and learns it lost ownership.
//   - Release: the holder rewrites its file as a released tombstone.
//     The next claimant takes over immediately (no TTL wait) and
//     continues the epoch sequence.
//   - Discard: the holder removes every epoch file, lowest first. It is
//     for resources finished for good: a claimant racing a Discard may
//     start a fresh sequence at epoch 1.
//
// Superseded epoch files stay until Discard: the highest epoch is found
// by probing upward from 1, which needs the chain unbroken. A record
// that fails to parse or checksum was written milliseconds ago, so
// observers treat it as live. The epoch is fencing metadata, not a hard
// mutual-exclusion guarantee — a paused holder can keep executing
// briefly after losing its lease, until its next renewal notices.
// Consumers must therefore keep per-epoch side effects isolated (the
// serve layer writes checkpoint journals to per-epoch files and
// discards results once a renewal fails) so a zombie's writes never
// corrupt the thief's.
//
// Injection points consulted when a faultinject.Injector is configured
// (keys are the lease name):
//
//	lease.acquire  Err fails the acquisition; Delay postpones it
//	lease.expire   any fired outcome makes a live lease look expired,
//	               forcing a deterministic contested steal
//	lease.steal    Delay is imposed between the expiry decision and the
//	               claim of the next epoch, widening the contested window
//	lease.renew    Err fails the renewal, so the holder observes a lost
//	               lease and cancels its work
package lease

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ropus/internal/faultinject"
	"ropus/internal/telemetry"
)

// DefaultTTL is the heartbeat budget when Keeper.TTL is zero: a holder
// that misses renewals for this long is presumed dead and stealable.
const DefaultTTL = 10 * time.Second

// ErrHeld reports an acquisition that lost to a live holder (or to a
// concurrent claimant racing the same lease).
var ErrHeld = errors.New("lease: held by another instance")

// ErrLost reports an operation on a lease this holder no longer owns:
// a peer stole it after the heartbeat went stale.
var ErrLost = errors.New("lease: ownership lost")

// HeldError wraps ErrHeld with the observed holder, so callers can
// surface who owns the resource.
type HeldError struct {
	Name     string
	Instance string
	Epoch    uint64
}

func (e *HeldError) Error() string {
	if e.Instance == "" {
		return fmt.Sprintf("lease: %s held by a concurrent claimant", e.Name)
	}
	return fmt.Sprintf("lease: %s held by %s (epoch %d)", e.Name, e.Instance, e.Epoch)
}

// Unwrap lets errors.Is(err, ErrHeld) match.
func (e *HeldError) Unwrap() error { return ErrHeld }

// Status classifies what an observer sees at a lease path.
type Status int

const (
	// StatusAbsent: no lease file; the resource is unowned.
	StatusAbsent Status = iota
	// StatusLive: a holder heartbeated within its TTL.
	StatusLive
	// StatusExpired: the heartbeat is older than the TTL; stealable.
	StatusExpired
	// StatusReleased: the holder released cleanly; claimable at once.
	StatusReleased
	// StatusUnreadable: the file exists but is torn or corrupt. A torn
	// lease was being written moments ago, so observers treat it as
	// live rather than steal from an active writer.
	StatusUnreadable
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusAbsent:
		return "absent"
	case StatusLive:
		return "live"
	case StatusExpired:
		return "expired"
	case StatusReleased:
		return "released"
	case StatusUnreadable:
		return "unreadable"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Info is the persisted lease record.
type Info struct {
	// Instance identifies the holder.
	Instance string `json:"instance"`
	// Epoch increments on every change of ownership (initial claim,
	// takeover of a released lease, steal of an expired one). Consumers
	// use it to fence per-ownership side effects.
	Epoch uint64 `json:"epoch"`
	// HeartbeatNS is the holder's last renewal, UnixNano.
	HeartbeatNS int64 `json:"heartbeatNs"`
	// TTLNS is the holder's declared heartbeat budget: observers treat
	// the lease as expired once now - HeartbeatNS exceeds it.
	TTLNS int64 `json:"ttlNs"`
	// Released marks a clean hand-back; the next claimant skips the TTL
	// wait but still continues the epoch sequence.
	Released bool `json:"released,omitempty"`
	// Sum is the FNV-1a checksum of the fields above, so a torn write
	// is detected instead of trusted.
	Sum string `json:"sum"`
}

// sum computes the record checksum over every field that matters.
func (i Info) sum() string {
	h := fnvOffset64
	fold := func(s string) {
		for j := 0; j < len(s); j++ {
			h ^= uint64(s[j])
			h *= fnvPrime64
		}
		h ^= 0xff // delimiter
		h *= fnvPrime64
	}
	fold(i.Instance)
	fold(fmt.Sprintf("%d|%d|%d|%t", i.Epoch, i.HeartbeatNS, i.TTLNS, i.Released))
	return fmt.Sprintf("%016x", h)
}

const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// Keeper acquires and observes leases in one directory on behalf of
// one instance. The zero TTL selects DefaultTTL. Keeper is safe for
// concurrent use.
type Keeper struct {
	// Dir is the shared lease directory (required; must exist).
	Dir string
	// Instance identifies this process in lease files (required).
	Instance string
	// TTL is the heartbeat budget written into every lease this keeper
	// claims. Peers steal once a heartbeat is older than this.
	TTL time.Duration
	// Inject is the test-only fault injector consulted at the
	// lease.acquire / lease.expire / lease.steal / lease.renew points;
	// nil injects nothing.
	Inject faultinject.Injector
	// Hooks (nil ok) receives the lease_* counters.
	Hooks telemetry.Hooks

	// now is the clock, swappable in tests.
	now func() time.Time
}

// uniq distinguishes temp names within a process.
var uniq atomic.Uint64

func (k *Keeper) clock() time.Time {
	if k.now != nil {
		return k.now()
	}
	return time.Now()
}

func (k *Keeper) ttl() time.Duration {
	if k.TTL > 0 {
		return k.TTL
	}
	return DefaultTTL
}

func (k *Keeper) hooks() telemetry.Hooks { return telemetry.OrNop(k.Hooks) }

// path is the file holding the lease's record for one epoch.
func (k *Keeper) path(name string, epoch uint64) string {
	return filepath.Join(k.Dir, fmt.Sprintf("%s.e%d.lease", name, epoch))
}

// latest returns the highest epoch the lease has a file for (0 when
// none), probing upward from 1 — two stats for a lease on its first
// owner — rather than listing a directory that holds every live lease.
func (k *Keeper) latest(name string) (epoch uint64) {
	for {
		if _, err := os.Stat(k.path(name, epoch+1)); err != nil {
			return epoch
		}
		epoch++
	}
}

func (k *Keeper) hit(point, key string) faultinject.Outcome {
	if k.Inject == nil {
		return faultinject.Outcome{}
	}
	o := k.Inject.Hit(point, key)
	// Lease calls take no context, so a scripted delay always runs its
	// course; callers read o.Err themselves.
	_ = o.Wait(context.Background())
	return o
}

// Read reports what this keeper observes at the lease: the record of
// its highest epoch (zero when absent; only the epoch, known from the
// file name, when unreadable) and its status. Expiry is judged by the
// TTL in the record, falling back to the keeper's when it carries none.
func (k *Keeper) Read(name string) (Info, Status) {
	epoch := k.latest(name)
	if epoch == 0 {
		return Info{}, StatusAbsent
	}
	data, err := os.ReadFile(k.path(name, epoch))
	if err != nil {
		return Info{}, StatusAbsent // discarded between probe and read
	}
	var info Info
	if uerr := json.Unmarshal(data, &info); uerr != nil || info.Sum != info.sum() || info.Epoch != epoch {
		return Info{Epoch: epoch}, StatusUnreadable
	}
	if info.Released {
		return info, StatusReleased
	}
	ttl := time.Duration(info.TTLNS)
	if ttl <= 0 {
		ttl = k.ttl()
	}
	if k.clock().Sub(time.Unix(0, info.HeartbeatNS)) > ttl {
		return info, StatusExpired
	}
	return info, StatusLive
}

// Acquire claims the named lease for this keeper's instance. A live
// holder fails the claim with a HeldError (errors.Is ErrHeld); an
// absent, released or expired lease is claimed at the next epoch, and
// an expired claim is a steal, reported by Lease.Stolen. Exactly one of
// N concurrent claimants wins; the rest get ErrHeld and retry later.
func (k *Keeper) Acquire(name string) (*Lease, error) {
	if o := k.hit("lease.acquire", name); o.Err != nil {
		return nil, fmt.Errorf("lease: acquire %s: %w", name, o.Err)
	}
	info, status := k.Read(name)
	if status == StatusLive || status == StatusUnreadable {
		// A scripted lease.expire outcome forces the expiry decision, so
		// chaos tests can stage contested steals deterministically.
		o := k.hit("lease.expire", name)
		if o == (faultinject.Outcome{}) {
			return nil, &HeldError{Name: name, Instance: info.Instance, Epoch: info.Epoch}
		}
		status = StatusExpired
	}
	if status == StatusExpired {
		k.hit("lease.steal", name)
	}
	l, err := k.claim(name, info.Epoch+1)
	if err != nil {
		return nil, err
	}
	l.stolen = status == StatusExpired
	if l.stolen {
		k.hooks().Counter("lease_steals_total").Inc()
	}
	k.hooks().Counter("lease_acquired_total").Inc()
	return l, nil
}

// claim links a freshly written record into the epoch's path. os.Link
// fails if the path exists, so whatever the claimant read and however
// long ago, at most one claimant gets the epoch; the rest get ErrHeld.
func (k *Keeper) claim(name string, epoch uint64) (*Lease, error) {
	l := &Lease{k: k, name: name, epoch: epoch}
	path := k.path(name, epoch)
	tmp := fmt.Sprintf("%s.claim.%x.%d", path, k.Instance, uniq.Add(1)) // %x: any instance name is path-safe
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("lease: claim %s: %w", name, err)
	}
	l.f = f
	if err := l.writeLocked(false); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	if err := os.Link(tmp, path); err != nil {
		f.Close()
		os.Remove(tmp)
		if os.IsExist(err) {
			return nil, &HeldError{Name: name}
		}
		return nil, fmt.Errorf("lease: claim %s: %w", name, err)
	}
	os.Remove(tmp)
	return l, nil
}

// Lease is a held lease. All methods are safe for concurrent use.
type Lease struct {
	k      *Keeper
	name   string
	epoch  uint64
	stolen bool

	mu   sync.Mutex
	f    *os.File
	lost bool
}

// Name returns the lease name.
func (l *Lease) Name() string { return l.name }

// Epoch returns the ownership epoch of this acquisition.
func (l *Lease) Epoch() uint64 { return l.epoch }

// Stolen reports whether this acquisition took the lease from an
// expired holder (as opposed to claiming a free or released one).
func (l *Lease) Stolen() bool { return l.stolen }

// writeLocked rewrites the record through the held descriptor and
// fsyncs it. Callers hold l.mu (or the lease is not yet shared).
func (l *Lease) writeLocked(released bool) error {
	info := Info{
		Instance:    l.k.Instance,
		Epoch:       l.epoch,
		HeartbeatNS: l.k.clock().UnixNano(),
		TTLNS:       int64(l.k.ttl()),
		Released:    released,
	}
	info.Sum = info.sum()
	data, err := json.Marshal(info)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("lease: write %s: %w", l.name, err)
	}
	if _, err := l.f.WriteAt(data, 0); err != nil {
		return fmt.Errorf("lease: write %s: %w", l.name, err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("lease: sync %s: %w", l.name, err)
	}
	return nil
}

// ownsLocked verifies this epoch's path still resolves to the held
// descriptor's inode and that no successor epoch has been claimed — the
// ground truth for "do I still own this".
func (l *Lease) ownsLocked() bool {
	onDisk, err := os.Stat(l.k.path(l.name, l.epoch))
	if err != nil {
		return false
	}
	held, err := l.f.Stat()
	if err != nil || !os.SameFile(onDisk, held) {
		return false
	}
	_, err = os.Stat(l.k.path(l.name, l.epoch+1))
	return os.IsNotExist(err)
}

// Renew refreshes the heartbeat. It returns ErrLost — permanently —
// once a successor epoch exists (or this epoch's file is gone): a peer
// stole the lease, and the holder must stop the work it was covering.
func (l *Lease) Renew() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.lost || l.f == nil {
		return ErrLost
	}
	if o := l.k.hit("lease.renew", l.name); o.Err != nil {
		l.lost = true
		l.k.hooks().Counter("lease_lost_total").Inc()
		return fmt.Errorf("%w: %w", ErrLost, o.Err)
	}
	if err := l.writeLocked(false); err != nil {
		return err
	}
	if !l.ownsLocked() {
		l.lost = true
		l.k.hooks().Counter("lease_lost_total").Inc()
		return ErrLost
	}
	return nil
}

// Release hands the lease back as a released tombstone: the next
// claimant (typically a restarted instance) takes over immediately,
// with the epoch sequence intact. Releasing a lost lease is a no-op.
func (l *Lease) Release() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closeLocked(false)
}

// Discard removes every epoch file of the lease. Use it when the
// guarded resource is finished for good (the job completed), so the
// directory does not accumulate tombstones per historical job.
func (l *Lease) Discard() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closeLocked(true)
}

func (l *Lease) closeLocked(remove bool) error {
	if l.f == nil {
		return nil
	}
	var err error
	if !l.lost && l.ownsLocked() {
		if remove {
			// Lowest first: an observer of a half-removed chain sees the
			// lease as absent, never an old epoch as its holder.
			for e := uint64(1); e <= l.epoch && err == nil; e++ {
				err = os.Remove(l.k.path(l.name, e))
			}
		} else {
			err = l.writeLocked(true)
		}
	}
	cerr := l.f.Close()
	l.f = nil
	l.lost = true
	if err != nil {
		return err
	}
	return cerr
}
