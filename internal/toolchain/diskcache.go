package toolchain

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"

	"cascade/internal/persist"
)

// Disk-backed bitstream store. With Options.CacheDir set, every
// successfully placed-and-routed design is also recorded on disk,
// content-addressed by the same canonical netlist fingerprint the
// in-memory cache uses. A fresh process pointed at the same directory —
// crash recovery, a restarted REPL, a CI bench step reusing the build
// step's store — serves resubmissions of unchanged designs at cache-hit
// latency instead of re-running the place-and-route model.
//
// Entries are small checksummed containers holding the flow's verified
// outcome (area, critical path), written atomically (temp file + fsync +
// rename) so a crash mid-write can never leave a half-entry. A corrupt,
// truncated, or stale entry is treated as a miss and deleted; an entry
// whose design no longer fits the current device (different capacity or
// clock) is ignored — validity is re-checked against the live device on
// every load, never trusted from disk.
//
// The store is one rung of a stack's durable chain (the CacheTier
// interface, cache.go).

const (
	bitsMagic   = "cascade-bits"
	bitsVersion = 1
)

// diskTier is the store under one directory; with no directory
// (Options.CacheDir unset) it holds nothing and records nothing.
// BitMeta.Key in an entry is the full cache key: the collision guard for
// the hashed file name.
type diskTier struct{ dir string }

func (d diskTier) Name() string { return HitDisk }

// path maps a cache key to its entry file.
func (d diskTier) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(d.dir, "bs-"+hex.EncodeToString(sum[:12])+".bits")
}

// Lookup loads and verifies the entry for key. Integrity failures of
// any kind — unreadable, bad checksum, wrong key — count as misses (and
// remove the bad entry, counted in flow.DiskCorrupt); only a clean entry
// returns ok.
func (d diskTier) Lookup(key string, flow *Stats) (BitMeta, bool) {
	if d.dir == "" {
		return BitMeta{}, false
	}
	path := d.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		return BitMeta{}, false
	}
	meta, err := decodeBitsEntry(data)
	if err != nil || meta.Key != key {
		os.Remove(path)
		flow.DiskCorrupt++
		return BitMeta{}, false
	}
	return meta, true
}

// Store durably records a successful flow outcome, counted in
// flow.DiskWrites once it is on disk.
func (d diskTier) Store(meta BitMeta, flow *Stats) {
	if d.dir == "" {
		return
	}
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return // the store is an accelerator; failures never fail the flow
	}
	text := fmt.Sprintf("key=%s\narea=%d\nrawarea=%d\ncritpath=%d\n",
		meta.Key, meta.AreaLEs, meta.RawAreaLEs, meta.CritPath)
	blob := persist.EncodeContainer(bitsMagic, bitsVersion, []persist.Section{
		{Name: "meta", Data: []byte(text)},
	})
	if _, err := persist.WriteFileAtomic(d.path(meta.Key), bytes.NewReader(blob), 0o644); err != nil {
		return
	}
	flow.DiskWrites++
}

func decodeBitsEntry(data []byte) (BitMeta, error) {
	var m BitMeta
	_, secs, err := persist.DecodeContainer(bitsMagic, data)
	if err != nil {
		return m, err
	}
	raw, ok := persist.FindSection(secs, "meta")
	if !ok {
		return m, fmt.Errorf("toolchain: bitstream entry missing meta")
	}
	if _, err := fmt.Sscanf(string(raw), "key=%s\narea=%d\nrawarea=%d\ncritpath=%d",
		&m.Key, &m.AreaLEs, &m.RawAreaLEs, &m.CritPath); err != nil {
		return m, fmt.Errorf("toolchain: bitstream entry meta: %w", err)
	}
	return m, nil
}
