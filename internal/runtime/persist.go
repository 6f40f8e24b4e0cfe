package runtime

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"cascade/internal/obsv"
	"cascade/internal/persist"
)

// Crash-safe persistence. A persisted runtime writes two kinds of state
// under its directory: periodic checkpoints (full snapshots in the
// checksummed container format, written atomically) and a write-ahead
// side-effect journal recording everything that changes execution
// between checkpoints — board inputs, eval'd source fragments, and
// scheduler advances. Because the scheduler is deterministic given those
// inputs (the paper's event-order-independence invariant is what makes
// "replay the journal" a correct recovery strategy at all), recovery is
// exact: load the newest checkpoint that verifies, replay the journal
// suffix, and the runtime reaches the same observable state — same
// program, same engine state, same LEDs, same display-output stream —
// the crashed process had at its last durable record.

// Journal record kinds.
const (
	// recKindInput is a host-driven board input ("kind path value"),
	// appended write-ahead: the record is durable before the input is
	// applied, so a recovered process never shows an input's effect
	// without also replaying its cause.
	recKindInput byte = 1
	// recKindEval is a source fragment committed into the running
	// program, appended after validation and before the commit.
	recKindEval byte = 2
	// recKindAdvance marks a completed scheduler step or open-loop burst
	// ("steps vnow"), appended after the step's effects are observable.
	recKindAdvance byte = 3
)

// PersistOptions configures crash-safe persistence for a runtime opened
// with Open (facade: cascade.Open + cascade.WithPersistence).
type PersistOptions struct {
	// Dir is the persistence directory (created if missing): checkpoint
	// files plus write-ahead journal segments.
	Dir string

	// EverySteps takes an automatic checkpoint each time this many
	// scheduler steps complete. Zero defaults to every 4096 steps.
	EverySteps uint64

	// SyncEveryRecord fsyncs the journal after every record, including
	// per-step advances. Off by default: inputs, evals, and checkpoints
	// are always synced, while advance records between them ride on the
	// next sync (a crash then costs at most the unsynced tail of steps,
	// never consistency).
	SyncEveryRecord bool

	// hookAfterAppend, set only by tests, observes every journal append
	// (after any fsync) with the record's sequence number and kind —
	// the crash-recovery property test copies the directory here to
	// simulate a kill at every record boundary.
	hookAfterAppend func(seq uint64, kind byte)
}

// PersistStats counts the persistence layer's work; zero-valued (with
// Enabled false) on runtimes without persistence.
type PersistStats struct {
	Enabled bool
	Dir     string
	// Records counts journal records appended by this process;
	// JournalBytes is the active segment's current size.
	Records      uint64
	JournalBytes int64
	// Checkpoints counts checkpoints written by this process;
	// CheckpointBytes is the size of the newest one; CheckpointNs is
	// cumulative wall-clock time spent encoding and writing them.
	Checkpoints     int
	CheckpointBytes int64
	CheckpointNs    int64
	// ReplayedRecords counts journal records replayed at Open.
	ReplayedRecords int
	// Err carries the first disk error, after which the journal stops
	// accepting records (execution continues without durability).
	Err string
}

// RecoveryInfo describes what Open found and replayed.
type RecoveryInfo struct {
	// Recovered is true when the directory held state (a checkpoint, a
	// journal, or both) that was restored into the runtime; callers
	// must then skip their usual initial Eval (the prelude and program
	// are already part of the recovered state).
	Recovered bool
	// CheckpointSeq is the journal position the restored checkpoint
	// covered (0 when recovery replayed from genesis).
	CheckpointSeq uint64
	// LastSeq is the journal position after replay; appends continue
	// from here.
	LastSeq uint64
	// Replay counters, by record kind.
	ReplayedRecords int
	ReplayedEvals   int
	ReplayedInputs  int
	// ResumedSteps is the scheduler position after replay.
	ResumedSteps uint64
	// OutputBytesAtCheckpoint is how many display-output bytes the
	// crashed process had flushed when the restored checkpoint was
	// taken: the recovered process's output stream continues the
	// original's from exactly that offset.
	OutputBytesAtCheckpoint uint64
	// CorruptCheckpoints lists checkpoint files that failed
	// verification and were skipped in favor of an older one.
	CorruptCheckpoints []string
}

// persister is the runtime's attachment to a persist.Store. Its mutex
// serializes journal appends from the controller (advances, evals)
// against input recordings from user goroutines, and covers the store's
// segment rotation during checkpoints.
type persister struct {
	opts  PersistOptions
	store *persist.Store

	mu  sync.Mutex
	seq uint64 // last assigned journal sequence number
	err error  // sticky first disk error
	adv []byte // the advance record being built; the controller's, under r.mu

	lastCkptSteps uint64

	records         uint64
	checkpoints     obsv.Tally // PersistStats.Checkpoints and cascade_checkpoints_total
	checkpointBytes int64
	checkpointNs    int64
	replayed        int
	errReported     bool
}

// append assigns the next sequence number and journals one record.
func (p *persister) append(kind byte, data []byte, sync bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return p.err
	}
	p.seq++
	if err := p.store.Append(p.seq, kind, data); err != nil {
		p.err = err
		return err
	}
	if sync || p.opts.SyncEveryRecord {
		if err := p.store.Sync(); err != nil {
			p.err = err
			return err
		}
	}
	p.records++
	if p.opts.hookAfterAppend != nil {
		p.opts.hookAfterAppend(p.seq, kind)
	}
	return nil
}

// Open creates a runtime with crash-safe persistence rooted at
// opts.Persist.Dir, recovering whatever state a previous process left
// there: the newest checkpoint that verifies (corrupt ones fall back to
// older ones), rolled forward by replaying the journal suffix. Torn
// journal tails are truncated at the last record boundary; recovery is
// exact up to the last durable record. When info.Recovered is true the
// returned runtime is already mid-execution — do not re-Eval the
// prelude or program.
func Open(opts Options) (*Runtime, *RecoveryInfo, error) {
	if opts.Persist == nil || opts.Persist.Dir == "" {
		return nil, nil, fmt.Errorf("runtime: Open requires Options.Persist.Dir (use New for a runtime without persistence)")
	}
	po := *opts.Persist
	if po.EverySteps == 0 {
		po.EverySteps = 4096
	}
	r := New(opts)

	// The store verifies candidates newest first and keeps the first that
	// decodes, which is therefore the last one decoded here.
	var ckpt *Snapshot
	var outBytes uint64
	store, st, err := persist.Open(po.Dir, func(payload []byte) (seq uint64, err error) {
		ckpt, seq, outBytes, err = decodeCheckpoint(payload)
		return seq, err
	})
	if err != nil {
		return nil, nil, fmt.Errorf("runtime: open persistence dir: %w", err)
	}
	info := &RecoveryInfo{
		CheckpointSeq:      st.CheckpointSeq,
		CorruptCheckpoints: st.CorruptCheckpoints,
	}
	// Every retained checkpoint corrupt with no journal to replay from
	// genesis is data loss, not a fresh start: refuse rather than
	// silently restart the program from nothing.
	if st.Empty() && len(st.CorruptCheckpoints) > 0 {
		store.Close()
		return nil, nil, fmt.Errorf("runtime: persistence dir %s is unrecoverable: all checkpoints corrupt (%v) and no replayable journal",
			po.Dir, st.CorruptCheckpoints)
	}

	lastSeq := st.CheckpointSeq
	if !st.Empty() {
		info.Recovered = true
		if st.Checkpoint != nil {
			if err := r.Restore(ckpt); err != nil {
				store.Close()
				return nil, nil, fmt.Errorf("runtime: restore checkpoint: %w", err)
			}
			r.mu.Lock()
			// Restoring re-ran the program's initial blocks; their
			// display lines are part of the output the original process
			// already flushed (counted in outBytes), not new output.
			r.displayQ = nil
			r.outBytes = outBytes
			r.mu.Unlock()
			info.OutputBytesAtCheckpoint = outBytes
		}
		for _, rec := range st.Records {
			lastSeq = rec.Seq
			switch rec.Kind {
			case recKindEval:
				if err := r.Eval(string(rec.Data)); err != nil {
					store.Close()
					return nil, nil, fmt.Errorf("runtime: replay eval (journal seq %d): %w", rec.Seq, err)
				}
				info.ReplayedEvals++
			case recKindInput:
				f, v, err := recordFields(rec.Data, 3)
				if err == nil {
					err = r.World().ApplyInput(f[0], f[1], v)
				}
				if err != nil {
					store.Close()
					return nil, nil, fmt.Errorf("runtime: replay input (journal seq %d): %w", rec.Seq, err)
				}
				info.ReplayedInputs++
			case recKindAdvance:
				f, vnow, err := recordFields(rec.Data, 2)
				var target uint64
				if err == nil {
					target, err = strconv.ParseUint(f[0], 10, 64)
				}
				if err != nil {
					store.Close()
					return nil, nil, fmt.Errorf("runtime: replay advance (journal seq %d): %w", rec.Seq, err)
				}
				r.replayTo(target)
				r.syncVirtualTime(vnow)
			default:
				store.Close()
				return nil, nil, fmt.Errorf("runtime: unknown journal record kind %d (journal seq %d)", rec.Kind, rec.Seq)
			}
			info.ReplayedRecords++
		}
	}
	info.ResumedSteps = r.Steps()
	info.LastSeq = lastSeq
	if info.Recovered {
		r.obs().Emit(obsv.EvRecovery, "", fmt.Sprintf("checkpoint seq=%d replayed=%d records resumed steps=%d",
			st.CheckpointSeq, info.ReplayedRecords, r.Steps()))
	}

	p := &persister{
		opts:          po,
		store:         store,
		seq:           lastSeq,
		lastCkptSteps: r.Steps(),
		replayed:      info.ReplayedRecords,
	}
	if o := r.obs(); o != nil {
		p.checkpoints.Series = o.Checkpoints
	}
	r.mu.Lock()
	r.pers = p
	r.mu.Unlock()
	// From here on, every board input is journaled write-ahead. Replay
	// above used ApplyInput, which bypasses the recorder, so nothing
	// was double-journaled.
	r.World().SetInputRecorder(func(kind, path string, value uint64) {
		if err := p.append(recKindInput, strconv.AppendUint([]byte(kind+" "+path+" "), value, 10), true); err != nil {
			r.reportPersistError(err)
		}
	})
	return r, info, nil
}

// Checkpoint forces a checkpoint now (between steps). The runtime also
// checkpoints automatically on the configured cadence.
func (r *Runtime) Checkpoint() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pers == nil {
		return fmt.Errorf("runtime: persistence not enabled")
	}
	return r.checkpointLocked()
}

// ClosePersistence syncs and closes the journal and detaches the input
// recorder; the runtime keeps executing without durability. No-op
// without persistence.
func (r *Runtime) ClosePersistence() error {
	r.mu.Lock()
	p := r.pers
	r.pers = nil
	r.mu.Unlock()
	if p == nil {
		return nil
	}
	r.World().SetInputRecorder(nil)
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.store.Close()
}

// PersistDir returns the persistence directory ("" when disabled).
func (r *Runtime) PersistDir() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.pers == nil {
		return ""
	}
	return r.pers.opts.Dir
}

// persistAfterStep journals the completed step and services the
// auto-checkpoint cadence. Called at the end of step() with r.mu held.
func (r *Runtime) persistAfterStep() {
	p := r.pers
	if p == nil {
		return
	}
	p.adv = strconv.AppendUint(append(strconv.AppendUint(p.adv[:0], r.steps, 10), ' '), r.vclk.Now(), 10)
	if err := p.append(recKindAdvance, p.adv, false); err != nil {
		r.reportPersistError(err)
		return
	}
	if r.steps-p.lastCkptSteps < p.opts.EverySteps {
		return
	}
	if err := r.checkpointLocked(); err != nil {
		r.reportPersistError(err)
	}
}

// checkpointLocked snapshots the runtime and writes the next durable
// checkpoint, rotating the journal. Callers hold r.mu.
func (r *Runtime) checkpointLocked() error {
	p := r.pers
	// Checkpoint timing reads the observer's wall clock (pinnable in
	// tests); it feeds only stats and metrics, never virtual billing.
	start := r.obs().WallNow()
	// The covered journal position is read before the snapshot: an
	// input racing in between lands in both the snapshot and the replay
	// suffix, and applying it twice is idempotent — the reverse order
	// could lose it entirely.
	p.mu.Lock()
	seqAt := p.seq
	if p.err != nil {
		p.mu.Unlock()
		return p.err
	}
	p.mu.Unlock()
	// Flush queued display output first so the checkpoint's output-byte
	// offset accounts for every line the program has produced up to
	// this step (the queue itself is not checkpointed).
	r.flushDisplays()
	ckpt := r.checkpointContainer(seqAt)

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return p.err
	}
	// Two are kept, so a corrupted newest checkpoint always has a fallback.
	size, err := p.store.WriteCheckpoint(ckpt, 2)
	if err != nil {
		p.err = err
		return err
	}
	p.lastCkptSteps = r.steps
	p.checkpoints.Inc()
	p.checkpointBytes = size
	wallNs := r.obs().WallNow().Sub(start).Nanoseconds()
	if wallNs < 0 {
		wallNs = 0 // a pinned/frozen test clock may not advance
	}
	p.checkpointNs += wallNs
	if o := r.opts.Observer; o != nil {
		o.Emit(obsv.EvCheckpoint, "", fmt.Sprintf("seq=%d bytes=%d", seqAt, size))
		o.CheckpointWall.Observe(uint64(wallNs))
	}
	return nil
}

// checkpointContainer is a checkpoint of the runtime as it is, covering
// the journal up to seq: the snapshot's sections, with the version's
// source section made once, then the journal position. Callers hold r.mu.
func (r *Runtime) checkpointContainer(seq uint64) persist.Container {
	secs := append(snapshotSections(r.snapshotLocked(), r.ver.sourceSection()), persist.Section{
		Name: "journal",
		Data: appendField(appendField(nil, "lastseq", '=', seq), "outbytes", '=', r.outBytes),
	})
	return persist.Container{Magic: snapshotMagic, Version: snapshotVersion, Sections: secs}
}

// persistEval journals a validated source fragment ahead of its commit.
// Called from EvalCtx with r.mu held; returns an error if the record
// cannot be made durable (the eval is then refused, keeping the journal
// a superset of applied effects).
func (r *Runtime) persistEval(src string) error {
	if r.pers == nil {
		return nil
	}
	if err := r.pers.append(recKindEval, []byte(src), true); err != nil {
		return fmt.Errorf("persist eval: %w", err)
	}
	return nil
}

// reportPersistError surfaces the first journal disk error on the view;
// later ones are identical (the error is sticky and appends stop).
func (r *Runtime) reportPersistError(err error) {
	p := r.pers
	if p == nil {
		return
	}
	p.mu.Lock()
	first := !p.errReported
	p.errReported = true
	p.mu.Unlock()
	if first {
		r.opts.View.Error(fmt.Errorf("persistence disabled after disk error: %w", err))
	}
}

// replayTo re-executes journaled steps up to, and never past, target (a
// warm bitstream cache can put replay in open loop earlier than the crashed
// process got there, and an unclamped burst would overshoot), and none
// without a program: only a damaged journal advances before its first eval.
func (r *Runtime) replayTo(target uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stepCeil = target
	for r.steps < target && !r.finished && r.ver.exec != nil {
		r.step()
	}
	r.stepCeil = 0
}

// syncVirtualTime rolls the virtual clock forward to at least target
// (replay: idle waits are not journaled per se, but each advance record
// carries the clock so recovery lands on the same timeline).
func (r *Runtime) syncVirtualTime(target uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if now := r.vclk.Now(); target > now {
		r.vclk.AdvanceRaw(target - now)
	}
}

// persistStats snapshots the persister's counters; r.mu held.
func (r *Runtime) persistStats() PersistStats {
	p := r.pers
	if p == nil {
		return PersistStats{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	st := PersistStats{
		Enabled:         true,
		Dir:             p.opts.Dir,
		Records:         p.records,
		JournalBytes:    p.store.JournalBytes(),
		Checkpoints:     int(p.checkpoints.N),
		CheckpointBytes: p.checkpointBytes,
		CheckpointNs:    p.checkpointNs,
		ReplayedRecords: p.replayed,
	}
	if p.err != nil {
		st.Err = p.err.Error()
	}
	return st
}

// decodeCheckpoint fully verifies a candidate checkpoint payload and
// decodes its snapshot, the journal position it covers and its
// flushed-output offset. Any failure marks the checkpoint corrupt and
// recovery falls back to an older one.
func decodeCheckpoint(payload []byte) (*Snapshot, uint64, uint64, error) {
	ver, secs, err := persist.DecodeContainer(snapshotMagic, payload)
	if err != nil {
		return nil, 0, 0, err
	}
	snap, extra, err := snapshotFromSections(ver, secs)
	if err != nil {
		return nil, 0, 0, err
	}
	seq, outBytes, err := parseJournalSection(extra)
	return snap, seq, outBytes, err
}

// recordFields splits an input or advance record into its want
// space-separated fields, the last of them a decimal uint64.
func recordFields(data []byte, want int) ([]string, uint64, error) {
	f := strings.Fields(string(data))
	if len(f) != want {
		return nil, 0, fmt.Errorf("malformed record %q", data)
	}
	n, err := strconv.ParseUint(f[want-1], 10, 64)
	return f, n, err
}

// parseJournalSection reads the checkpoint-only "journal" section: the
// last covered sequence number and the flushed-output byte offset.
func parseJournalSection(secs []persist.Section) (seq, outBytes uint64, err error) {
	data, ok := persist.FindSection(secs, "journal")
	if !ok {
		return 0, 0, fmt.Errorf("checkpoint missing journal section")
	}
	if _, err := fmt.Sscanf(string(data), "lastseq=%d\noutbytes=%d", &seq, &outBytes); err != nil {
		return 0, 0, fmt.Errorf("checkpoint journal section: %w", err)
	}
	return seq, outBytes, nil
}
