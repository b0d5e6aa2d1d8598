package devtrack

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Snapshot is one recorded state of a source tree.
type Snapshot struct {
	ID      string
	Message string
	Time    time.Time
	// Files maps tree-relative paths to content hashes.
	Files map[string]string
	// RunID optionally links the snapshot to a training run.
	RunID string
}

// SnapshotStore is a content-addressed store of source-tree snapshots —
// the "one-to-one memorization of each modification" of §3.1.
type SnapshotStore struct {
	mu    sync.RWMutex
	blobs map[string][]byte
	snaps []Snapshot
	seq   int
	clock func() time.Time
}

// NewSnapshotStore returns an empty store.
func NewSnapshotStore() *SnapshotStore {
	return &SnapshotStore{blobs: make(map[string][]byte), clock: func() time.Time { return time.Now().UTC() }}
}

// SetClock overrides time for deterministic tests.
func (s *SnapshotStore) SetClock(clock func() time.Time) { s.clock = clock }

func hashBytes(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// putBlob stores content and returns its hash (deduplicated).
func (s *SnapshotStore) putBlob(data []byte) string {
	h := hashBytes(data)
	s.mu.Lock()
	if _, ok := s.blobs[h]; !ok {
		cp := make([]byte, len(data))
		copy(cp, data)
		s.blobs[h] = cp
	}
	s.mu.Unlock()
	return h
}

// Blob returns stored content by hash.
func (s *SnapshotStore) Blob(hash string) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.blobs[hash]
	if !ok {
		return nil, false
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out, true
}

// TakeSnapshotFiles records an in-memory file set.
func (s *SnapshotStore) TakeSnapshotFiles(files map[string][]byte, message string) Snapshot {
	snap := Snapshot{Message: message, Time: s.clock(), Files: make(map[string]string, len(files))}
	for path, data := range files {
		snap.Files[filepath.ToSlash(path)] = s.putBlob(data)
	}
	s.mu.Lock()
	s.seq++
	snap.ID = fmt.Sprintf("snap%04d", s.seq)
	s.snaps = append(s.snaps, snap)
	s.mu.Unlock()
	return snap
}

// Get returns a snapshot by id.
func (s *SnapshotStore) Get(id string) (Snapshot, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, snap := range s.snaps {
		if snap.ID == id {
			return snap, true
		}
	}
	return Snapshot{}, false
}

// LinkRun attaches a run id to a snapshot, pairing code state with the
// training result produced from it.
func (s *SnapshotStore) LinkRun(snapID, runID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.snaps {
		if s.snaps[i].ID == snapID {
			s.snaps[i].RunID = runID
			return nil
		}
	}
	return fmt.Errorf("devtrack: snapshot %q does not exist", snapID)
}

// FileChange describes one file's evolution between snapshots.
type FileChange struct {
	Path   string
	Status string // "added", "removed", "modified"
	Ops    []Op   // line diff for modified/added/removed text files
}

// DiffSnapshots compares two snapshots.
func (s *SnapshotStore) DiffSnapshots(fromID, toID string) ([]FileChange, error) {
	from, ok := s.Get(fromID)
	if !ok {
		return nil, fmt.Errorf("devtrack: snapshot %q does not exist", fromID)
	}
	to, ok := s.Get(toID)
	if !ok {
		return nil, fmt.Errorf("devtrack: snapshot %q does not exist", toID)
	}
	paths := map[string]bool{}
	for p := range from.Files {
		paths[p] = true
	}
	for p := range to.Files {
		paths[p] = true
	}
	sorted := make([]string, 0, len(paths))
	for p := range paths {
		sorted = append(sorted, p)
	}
	sort.Strings(sorted)

	var changes []FileChange
	for _, p := range sorted {
		fh, inFrom := from.Files[p]
		th, inTo := to.Files[p]
		switch {
		case inFrom && !inTo:
			data, _ := s.Blob(fh)
			changes = append(changes, FileChange{Path: p, Status: "removed", Ops: DiffLines(splitLines(data), nil)})
		case !inFrom && inTo:
			data, _ := s.Blob(th)
			changes = append(changes, FileChange{Path: p, Status: "added", Ops: DiffLines(nil, splitLines(data))})
		case fh != th:
			a, _ := s.Blob(fh)
			b, _ := s.Blob(th)
			changes = append(changes, FileChange{Path: p, Status: "modified", Ops: DiffLines(splitLines(a), splitLines(b))})
		}
	}
	return changes, nil
}

// Restore returns the full file contents of a snapshot — the "roll back
// to a specific moment in time" capability of §3.1.
func (s *SnapshotStore) Restore(id string) (map[string][]byte, error) {
	snap, ok := s.Get(id)
	if !ok {
		return nil, fmt.Errorf("devtrack: snapshot %q does not exist", id)
	}
	out := make(map[string][]byte, len(snap.Files))
	for path, hash := range snap.Files {
		data, ok := s.Blob(hash)
		if !ok {
			return nil, fmt.Errorf("devtrack: blob %s missing for %s", hash, path)
		}
		out[path] = data
	}
	return out, nil
}

func splitLines(data []byte) []string {
	if len(data) == 0 {
		return nil
	}
	return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
}
