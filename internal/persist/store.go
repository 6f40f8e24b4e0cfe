package persist

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Store manages a persistence directory: numbered checkpoint files and
// the journal segments between them.
//
//	dir/
//	  ckpt-000001.ckpt   checkpoint payloads (checksummed containers,
//	  ckpt-000002.ckpt   written atomically)
//	  wal-000000.wal     records accepted before checkpoint 1
//	  wal-000001.wal     records between checkpoints 1 and 2
//	  wal-000002.wal     records after checkpoint 2 (active segment)
//
// Checkpoint N is written atomically, then the journal rotates to
// segment N (compaction: the records a checkpoint covers stop growing
// the active segment). Retention keeps the last `keep` checkpoints plus
// every segment needed to roll any retained checkpoint forward, so a
// corrupted latest checkpoint falls back to the previous one and
// replays through the corrupted one's segment to the same position.
//
// Recovery picks the newest checkpoint that decodes and checksums
// clean, then replays every record with a higher sequence number from
// segment files at or above the checkpoint's index. Sequence numbers
// are absolute, so a crash between writing a checkpoint and rotating
// the journal is harmless — replay just skips the records the
// checkpoint already covers.
type Store struct {
	dir    string
	active *Journal
	// ckptIndex is the index of the newest on-disk checkpoint (0 when
	// none); the active segment always carries the same index.
	ckptIndex int
}

const (
	ckptPrefix = "ckpt-"
	ckptSuffix = ".ckpt"
	walPrefix  = "wal-"
	walSuffix  = ".wal"
)

func (s *Store) ckptPath(n int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%06d%s", ckptPrefix, n, ckptSuffix))
}

func (s *Store) walPath(n int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%06d%s", walPrefix, n, walSuffix))
}

// RecoveredState is what Open found on disk: the newest checkpoint that
// verified clean (nil when starting fresh) and the journal records to
// replay on top of it, in order.
type RecoveredState struct {
	// Checkpoint is the raw checkpoint payload (a container the caller
	// decodes); nil when no valid checkpoint exists.
	Checkpoint []byte
	// CheckpointSeq is the last journal sequence number the checkpoint
	// covers, as reported by the caller's MetaSeq callback.
	CheckpointSeq uint64
	// Records is the journal suffix to replay: every verifiable record
	// with Seq > CheckpointSeq.
	Records []Record
	// CorruptCheckpoints lists checkpoint files that failed
	// verification and were skipped (surfaced so callers can report the
	// fallback).
	CorruptCheckpoints []string
}

// Empty reports whether the directory held no recoverable state at all.
func (r *RecoveredState) Empty() bool {
	return r.Checkpoint == nil && len(r.Records) == 0
}

// CheckpointDecoder verifies a checkpoint payload and extracts the last
// journal sequence number it covers. Returning an error marks the
// checkpoint corrupt, and recovery falls back to the previous one.
type CheckpointDecoder func(payload []byte) (lastSeq uint64, err error)

// Open opens (creating if needed) a persistence directory, scans it,
// and returns the store ready for appends plus whatever state survived.
// decode validates candidate checkpoints — newest first — and recovery
// falls back across corrupt ones rather than half-applying anything.
func Open(dir string, decode CheckpointDecoder) (*Store, *RecoveredState, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	s := &Store{dir: dir}
	st := &RecoveredState{}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var ckpts, wals []int
	for _, e := range entries {
		if n, ok := parseIndexedName(e.Name(), ckptPrefix, ckptSuffix); ok {
			ckpts = append(ckpts, n)
		}
		if n, ok := parseIndexedName(e.Name(), walPrefix, walSuffix); ok {
			wals = append(wals, n)
		}
	}
	sort.Ints(ckpts)
	sort.Ints(wals)

	// Newest checkpoint that verifies wins; corrupt ones are recorded
	// and skipped.
	maxIndex := 0
	if len(ckpts) > 0 {
		maxIndex = ckpts[len(ckpts)-1]
	}
	for i := len(ckpts) - 1; i >= 0; i-- {
		path := s.ckptPath(ckpts[i])
		payload, err := os.ReadFile(path)
		if err == nil {
			var seq uint64
			if seq, err = decode(payload); err == nil {
				st.Checkpoint = payload
				st.CheckpointSeq = seq
				break
			}
		}
		st.CorruptCheckpoints = append(st.CorruptCheckpoints, filepath.Base(path))
	}

	// Replay suffix: every record above the checkpoint's sequence
	// number, from all segments in index order. Sequence numbers are
	// absolute and increase across segments, so the filter alone is
	// correct — and it transparently handles a crash that wrote a
	// checkpoint but died before rotating the journal (the uncovered
	// records still sit in the previous segment).
	for _, n := range wals {
		recs, err := ReadJournal(s.walPath(n))
		if err != nil {
			return nil, nil, err
		}
		for _, r := range recs {
			if r.Seq <= st.CheckpointSeq {
				continue
			}
			st.Records = append(st.Records, r)
		}
	}
	// The suffix must be gapless from the checkpoint onward: a missing
	// or unreadable record orphans everything after it, so replay stops
	// at the first discontinuity rather than skipping over lost history.
	want := st.CheckpointSeq + 1
	for i, r := range st.Records {
		if r.Seq != want {
			st.Records = st.Records[:i]
			break
		}
		want++
	}

	// The active segment rides with the newest checkpoint file present
	// (even a corrupt one — its index keeps monotonicity simple).
	s.ckptIndex = maxIndex
	active, _, err := OpenJournal(s.walPath(maxIndex))
	if err != nil {
		return nil, nil, err
	}
	s.active = active
	return s, st, nil
}

// Append adds one record to the active journal segment.
func (s *Store) Append(seq uint64, kind byte, data []byte) error {
	return s.active.Append(seq, kind, data)
}

// Sync flushes the active segment to stable storage.
func (s *Store) Sync() error { return s.active.Sync() }

// JournalBytes returns the size of the active segment's records.
func (s *Store) JournalBytes() int64 { return s.active.bytes }

// WriteCheckpoint seals the active segment (synced and closed), writes
// the next checkpoint atomically, opens a fresh segment and prunes the
// checkpoints (and the segments only they needed) older than keep. After
// an error the store takes no more appends.
func (s *Store) WriteCheckpoint(payload []byte, keep int) (int, error) {
	if keep < 1 {
		keep = 1
	}
	// Seal the active segment first: the checkpoint claims to cover its
	// records, so they must be durable before the checkpoint exists.
	if err := s.active.Close(); err != nil {
		return 0, err
	}
	n := s.ckptIndex + 1
	if err := WriteFileAtomic(s.ckptPath(n), payload, 0o644); err != nil {
		return 0, err
	}
	active, _, err := OpenJournal(s.walPath(n))
	if err != nil {
		return 0, err
	}
	s.active = active
	s.ckptIndex = n

	// Prune beyond the retention horizon: keep checkpoints (n-keep, n]
	// and the segments at or above the oldest retained checkpoint's
	// index (those are the ones a fallback replay can still need) —
	// plus one extra segment, because a record appended concurrently
	// with a checkpoint write can land just before the rotation, in the
	// segment below the checkpoint's index.
	horizon := n - keep + 1
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return n, nil // pruning is best-effort
	}
	for _, e := range entries {
		if i, ok := parseIndexedName(e.Name(), ckptPrefix, ckptSuffix); ok && i < horizon {
			os.Remove(filepath.Join(s.dir, e.Name()))
		}
		if i, ok := parseIndexedName(e.Name(), walPrefix, walSuffix); ok && i < horizon-1 {
			os.Remove(filepath.Join(s.dir, e.Name()))
		}
	}
	syncDir(s.dir)
	return n, nil
}

// Close syncs and closes the active segment.
func (s *Store) Close() error {
	if s.active == nil {
		return nil
	}
	err := s.active.Close()
	s.active = nil
	return err
}
