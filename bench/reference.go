package main

import (
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// The reference task is how the benchmark tells a slow machine from
// slow code. The machines this runs on are small guests on shared
// hosts, and what the neighbours do changes how fast a guest executes
// by tens of percent for minutes at a time (ten runs of identical code:
// raw ops_per_s spread 15–45 %). So every client spends a fixed share
// of its time, between operations, on a fixed piece of work that uses
// nothing of the code under test — standard library only — and is a
// miniature of what this system does with a document: decode JSON into
// maps and encode it back, deflate a block of float64s (the Zarr
// path), follow pointers through a heap far bigger than the caches,
// and write pages to a file. How long that work takes while the
// window runs, on the same cores and in the same seconds, against how
// long it takes on a calm machine (refNominal), is the factor by
// which the machine is slow right now; the timing metrics are divided
// by it. The benchmark's code is the same on a parent and a change, so
// the factor cannot move with the code under test.

const (
	// refShare is the share of its owner's time a refMeter spends on
	// the reference task: the closed-loop clients think for 5 %.
	refShare = 0.05
	// refNominal and refNominalIdle are the mean duration of the
	// reference task on the reference machine (2 vCPUs of a Sapphire
	// Rapids host) at its calmest: beside a running workload, and with
	// a core to itself as during a restart. They only fix the unit the
	// normalised metrics are in.
	refNominal     = 250 * time.Microsecond
	refNominalIdle = 180 * time.Microsecond
)

var (
	refOnce sync.Once
	refRing []uint32 // one random cycle through 64 MB, shared read-only
	refDoc  []byte   // a small PROV-JSON document
	refNums []byte   // a block of float64s, as a Zarr chunk holds them
)

func refInit() {
	refOnce.Do(func() {
		n := (64 << 20) / 4
		refRing = make([]uint32, n)
		for i := range refRing {
			refRing[i] = uint32(i)
		}
		// Sattolo's shuffle: a single cycle through every slot.
		rng := rand.New(rand.NewSource(1))
		for i := n - 1; i > 0; i-- {
			j := rng.Intn(i)
			refRing[i], refRing[j] = refRing[j], refRing[i]
		}
		refDoc = encodeChainDoc(6, 4242, 0)
		refNums = make([]byte, 2048)
		for i := 0; i < len(refNums)/8; i++ {
			binary.LittleEndian.PutUint64(refNums[8*i:], math.Float64bits(2/math.Sqrt(float64(i+1))))
		}
	})
}

// refMark is one executed reference task.
type refMark struct {
	end time.Time
	dur time.Duration
}

// refMeter runs the reference task on its owner's goroutine, often
// enough to take refShare of the owner's time, and keeps every
// execution's duration.
type refMeter struct {
	fw    *flate.Writer
	file  *os.File
	pos   uint32
	since time.Time
	spent time.Duration
	marks []refMark
}

// newRefMeter creates a meter whose scratch file is dir/name.
func newRefMeter(dir, name string) (*refMeter, error) {
	refInit()
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return nil, err
	}
	fw, err := flate.NewWriter(io.Discard, flate.DefaultCompression)
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	return &refMeter{fw: fw, file: f}, nil
}

func (m *refMeter) close() { _ = m.file.Close() }

// reset starts a new accounting period at now.
func (m *refMeter) reset(now time.Time) {
	m.since, m.spent, m.marks = now, 0, m.marks[:0]
}

// catchUp runs reference tasks until they make up refShare of the
// time since reset. The owner calls it between operations.
func (m *refMeter) catchUp(now time.Time) {
	for float64(m.spent) < refShare*float64(now.Sub(m.since)) {
		now = m.timed()
	}
}

// busyFor runs reference tasks back to back for d: what the harness
// does instead of sleeping while it waits for a restarting server.
func (m *refMeter) busyFor(d time.Duration) {
	until := time.Now().Add(d)
	for m.timed().Before(until) {
	}
}

// timed runs the task once, records it and returns when it ended.
func (m *refMeter) timed() time.Time {
	start := time.Now()
	m.task()
	end := time.Now()
	m.spent += end.Sub(start)
	m.marks = append(m.marks, refMark{end: end, dur: end.Sub(start)})
	return end
}

// task is the fixed work. Errors are ignored on purpose: nothing here
// can fail in a way that matters to a stopwatch, and a failed write
// still took the time it took.
func (m *refMeter) task() {
	var v map[string]interface{}
	_ = json.Unmarshal(refDoc, &v)
	b, _ := json.Marshal(v)
	runtime.KeepAlive(b)

	m.fw.Reset(io.Discard)
	_, _ = m.fw.Write(refNums)
	_ = m.fw.Close()

	pos := m.pos
	for i := 0; i < 128; i++ {
		pos = refRing[pos]
	}
	m.pos = pos

	for i := int64(0); i < 8; i++ {
		_, _ = m.file.WriteAt(refNums, i*4096)
	}
}

// refMean is the mean task duration over [from, to), 0 when none ran.
func refMean(meters []*refMeter, from, to time.Time) time.Duration {
	var sum time.Duration
	n := 0
	for _, m := range meters {
		for _, mk := range m.marks {
			if !mk.end.Before(from) && mk.end.Before(to) {
				sum += mk.dur
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}
