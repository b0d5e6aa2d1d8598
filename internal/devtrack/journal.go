package devtrack

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/prov"
)

// CommandEntry is one recorded console command with its output — the
// unit of the §3.1 "development graph".
type CommandEntry struct {
	Index    int
	Command  string
	Output   string
	ExitCode int
	At       time.Time
	// SnapshotID optionally ties the command to the code state it ran on.
	SnapshotID string
}

// Journal records the sequence of commands a development environment
// was subjected to.
type Journal struct {
	mu      sync.Mutex
	entries []CommandEntry
	clock   func() time.Time
}

// NewJournal returns an empty journal.
func NewJournal() *Journal {
	return &Journal{clock: func() time.Time { return time.Now().UTC() }}
}

// SetClock overrides time for deterministic tests.
func (j *Journal) SetClock(clock func() time.Time) { j.clock = clock }

// Record appends a command entry and returns it.
func (j *Journal) Record(command, output string, exitCode int, snapshotID string) CommandEntry {
	j.mu.Lock()
	defer j.mu.Unlock()
	e := CommandEntry{
		Index:      len(j.entries),
		Command:    command,
		Output:     output,
		ExitCode:   exitCode,
		At:         j.clock(),
		SnapshotID: snapshotID,
	}
	j.entries = append(j.entries, e)
	return e
}

// Entries returns all recorded commands in order.
func (j *Journal) Entries() []CommandEntry {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]CommandEntry(nil), j.entries...)
}

// BuildProv exports the development history as a PROV document: each
// command is an activity informed by its predecessor (the console
// timeline); outputs are entities; snapshots are entities used by the
// commands that ran against them.
func (j *Journal) BuildProv(store *SnapshotStore) (*prov.Document, error) {
	entries := j.Entries()
	d := prov.NewDocument()
	d.AddAgent("ex:developer", prov.Attrs{"prov:type": prov.Str("prov:Person")})

	cmdQ := func(i int) prov.QName { return prov.NewQName("ex", fmt.Sprintf("cmd%04d", i)) }
	snapSeen := map[string]bool{}
	for _, e := range entries {
		a := d.AddActivity(cmdQ(e.Index), prov.Attrs{
			"prov:type":     prov.Str("yprov:Command"),
			"yprov:command": prov.Str(e.Command),
			"yprov:exit":    prov.Int(int64(e.ExitCode)),
		})
		a.StartTime = e.At
		a.EndTime = e.At
		d.WasAssociatedWith(cmdQ(e.Index), "ex:developer")
		if e.Index > 0 {
			d.WasInformedBy(cmdQ(e.Index), cmdQ(e.Index-1))
		}
		if e.Output != "" {
			out := prov.NewQName("ex", fmt.Sprintf("cmd%04d_output", e.Index))
			d.AddEntity(out, prov.Attrs{
				"prov:type":    prov.Str("yprov:CommandOutput"),
				"yprov:output": prov.Str(truncate(e.Output, 2048)),
			})
			d.WasGeneratedBy(out, cmdQ(e.Index), e.At)
		}
		if e.SnapshotID != "" {
			snapQ := prov.NewQName("ex", e.SnapshotID)
			if !snapSeen[e.SnapshotID] {
				attrs := prov.Attrs{"prov:type": prov.Str("yprov:CodeSnapshot")}
				if store != nil {
					if snap, ok := store.Get(e.SnapshotID); ok {
						attrs["yprov:files"] = prov.Int(int64(len(snap.Files)))
						attrs["yprov:message"] = prov.Str(snap.Message)
						if snap.RunID != "" {
							attrs["yprov:run"] = prov.Str(snap.RunID)
						}
					}
				}
				d.AddEntity(snapQ, attrs)
				snapSeen[e.SnapshotID] = true
			}
			d.Used(cmdQ(e.Index), snapQ, e.At)
		}
	}
	if _, err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "...(truncated)"
}
