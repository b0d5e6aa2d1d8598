package wal

import (
	"io"
	"os"
	"sync"
	"time"
)

// File is the slice of *os.File the log needs from its active segment:
// appends, durability barriers, and close on rotation. Keeping the
// surface this small is what makes fault injection cheap — a fake only
// has to misbehave in three ways.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// FS abstracts segment-file creation so tests can inject IO failures
// (disk full, dying device, slow fsync) into the exact code paths a
// real disk would fail, instead of poking package-private failpoints.
// Only the active-segment write path goes through FS; recovery reads
// and snapshot files keep using the os package directly, since the
// fail-stop latch this seam exists to exercise lives on the write side.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
}

// osFS is the production FS: a pass-through to the os package.
type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

// DefaultFS is the FS used when Options.FS is nil.
var DefaultFS FS = osFS{}

// FaultFS wraps an FS and injects faults into the files it opens:
// failed writes, short writes, failed fsyncs, and slow fsyncs. Faults
// arm after a configurable number of successful operations, so a test
// can let a store write real durable records and then yank the disk at
// a chosen point. All methods are safe for concurrent use; faults apply
// to every file opened through this FS, armed or re-armed at any time.
//
// The zero value is not usable; construct with NewFaultFS.
type FaultFS struct {
	inner FS

	mu         sync.Mutex
	writesLeft int // successful writes before the write fault fires; -1 = never
	writeErr   error
	shortWrite bool // deliver half the buffer with the error, like ENOSPC mid-write
	syncsLeft  int  // successful syncs before the sync fault fires; -1 = never
	syncErr    error
	syncDelay  time.Duration // injected before every sync (slow disk)
}

// NewFaultFS returns a FaultFS over inner (nil = DefaultFS) with no
// faults armed.
func NewFaultFS(inner FS) *FaultFS {
	if inner == nil {
		inner = DefaultFS
	}
	return &FaultFS{inner: inner, writesLeft: -1, syncsLeft: -1}
}

// FailWrites arms the write fault: after `after` more successful
// writes, every write fails with err.
func (f *FaultFS) FailWrites(after int, err error) {
	f.mu.Lock()
	f.writesLeft = after
	f.writeErr = err
	f.shortWrite = false
	f.mu.Unlock()
}

// ShortWrites arms a short-write fault: after `after` more successful
// writes, each write delivers only half its buffer to the underlying
// file and returns err — the shape of a disk filling up mid-record.
func (f *FaultFS) ShortWrites(after int, err error) {
	f.mu.Lock()
	f.writesLeft = after
	f.writeErr = err
	f.shortWrite = true
	f.mu.Unlock()
}

// FailSyncs arms the fsync fault: after `after` more successful syncs,
// every sync fails with err.
func (f *FaultFS) FailSyncs(after int, err error) {
	f.mu.Lock()
	f.syncsLeft = after
	f.syncErr = err
	f.mu.Unlock()
}

// SlowSyncs injects d of latency before every sync (0 disables). A
// slow fsync is the canonical way a healthy-looking disk stalls the
// group-commit queue, which is what admission control sheds on.
func (f *FaultFS) SlowSyncs(d time.Duration) {
	f.mu.Lock()
	f.syncDelay = d
	f.mu.Unlock()
}

// Clear disarms every fault.
func (f *FaultFS) Clear() {
	f.mu.Lock()
	f.writesLeft = -1
	f.writeErr = nil
	f.shortWrite = false
	f.syncsLeft = -1
	f.syncErr = nil
	f.syncDelay = 0
	f.mu.Unlock()
}

// OpenFile opens through the inner FS and wraps the file with the
// fault hooks.
func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	file, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file}, nil
}

// writeDecision consults and advances the write-fault state.
func (f *FaultFS) writeDecision() (fail, short bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.writesLeft < 0 {
		return false, false, nil
	}
	if f.writesLeft > 0 {
		f.writesLeft--
		return false, false, nil
	}
	return true, f.shortWrite, f.writeErr
}

// syncDecision consults and advances the sync-fault state.
func (f *FaultFS) syncDecision() (delay time.Duration, fail bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delay = f.syncDelay
	if f.syncsLeft < 0 {
		return delay, false, nil
	}
	if f.syncsLeft > 0 {
		f.syncsLeft--
		return delay, false, nil
	}
	return delay, true, f.syncErr
}

// faultFile applies the parent FaultFS's armed faults to one file.
type faultFile struct {
	fs *FaultFS
	f  File
}

func (ff *faultFile) Write(p []byte) (int, error) {
	fail, short, err := ff.fs.writeDecision()
	if !fail {
		return ff.f.Write(p)
	}
	if short && len(p) > 0 {
		// Deliver a truncated prefix so the segment really holds a torn
		// record, exactly what recovery's tail repair must handle.
		n, werr := ff.f.Write(p[:len(p)/2])
		if werr != nil {
			return n, werr
		}
		return n, err
	}
	return 0, err
}

func (ff *faultFile) Sync() error {
	delay, fail, err := ff.fs.syncDecision()
	if delay > 0 {
		time.Sleep(delay)
	}
	if fail {
		return err
	}
	return ff.f.Sync()
}

func (ff *faultFile) Close() error { return ff.f.Close() }
