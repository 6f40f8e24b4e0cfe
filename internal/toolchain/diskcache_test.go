package toolchain

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"cascade/internal/fpga"
)

func diskCacheOptions(dir string) Options {
	o := DefaultOptions()
	o.CacheDir = dir
	return o
}

// waitResult submits f at virtual time nowPs and blocks until the flow
// completes, returning the result.
func waitResult(t *testing.T, tc *Toolchain, src string, nowPs uint64) *Result {
	t.Helper()
	job := tc.Submit(context.Background(), flatFor(t, src), true, nowPs)
	if _, ok := job.ReadyAt(); !ok {
		t.Fatal("job reported cancelled")
	}
	return job.Result()
}

func TestDiskCacheServesFreshProcess(t *testing.T) {
	dir := t.TempDir()

	// Process A: compile once, paying full place-and-route, and record
	// the bitstream on disk.
	a := New(fpga.NewCycloneV(), diskCacheOptions(dir))
	first := waitResult(t, a, smallCounter, 0)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	if first.CacheHit {
		t.Fatal("first compile must not be a cache hit")
	}
	if st := a.Stats(); st.DiskWrites != 1 || st.CacheMisses != 1 {
		t.Fatalf("stats after first compile: %+v", st)
	}

	// Process B: a fresh toolchain (empty memory cache) over the same
	// directory. The identical design is served from the disk store at
	// cache-hit latency — place-and-route is not re-run.
	b := New(fpga.NewCycloneV(), diskCacheOptions(dir))
	res := waitResult(t, b, smallCounter, 0)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.CacheHit {
		t.Fatal("fresh process over the same store should hit the disk cache")
	}
	if res.DurationPs >= first.DurationPs/1000 {
		t.Fatalf("disk hit should take ~zero virtual time: %d ps vs %d ps",
			res.DurationPs, first.DurationPs)
	}
	st := b.Stats()
	if st.DiskHits != 1 || st.CacheHits != 1 || st.CacheMisses != 0 || st.DiskWrites != 0 {
		t.Fatalf("stats after disk hit: %+v", st)
	}
	if res.AreaLEs != first.AreaLEs || res.Stats.CritPath != first.Stats.CritPath {
		t.Fatalf("disk hit changed the outcome: %+v vs %+v", res, first)
	}

	// The disk hit published a memory entry: a resubmission in the same
	// process hits memory, not disk.
	again := waitResult(t, b, smallCounter, res.DurationPs)
	if !again.CacheHit {
		t.Fatal("resubmission should hit the in-memory cache")
	}
	if st := b.Stats(); st.DiskHits != 1 {
		t.Fatalf("resubmission should not touch disk again: %+v", st)
	}
}

func TestDiskCacheCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	a := New(fpga.NewCycloneV(), diskCacheOptions(dir))
	if res := waitResult(t, a, smallCounter, 0); res.Err != nil {
		t.Fatal(res.Err)
	}

	entries, err := filepath.Glob(filepath.Join(dir, "bs-*.bits"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("expected one entry file, got %v (%v)", entries, err)
	}
	blob, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x40
	if err := os.WriteFile(entries[0], blob, 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh process finds the corrupt entry, rejects it, and compiles
	// normally — corruption degrades to a miss, never a wrong bitstream.
	b := New(fpga.NewCycloneV(), diskCacheOptions(dir))
	res := waitResult(t, b, smallCounter, 0)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.CacheHit {
		t.Fatal("corrupt entry must be treated as a miss")
	}
	st := b.Stats()
	if st.DiskCorrupt != 1 || st.DiskHits != 0 || st.CacheMisses != 1 {
		t.Fatalf("stats after corrupt entry: %+v", st)
	}
	// The miss re-wrote a clean entry; a third process hits it.
	if st.DiskWrites != 1 {
		t.Fatalf("miss should repopulate the store: %+v", st)
	}
	c := New(fpga.NewCycloneV(), diskCacheOptions(dir))
	if res := waitResult(t, c, smallCounter, 0); !res.CacheHit {
		t.Fatal("repopulated entry should serve the next process")
	}
}

// TestDiskCacheConcurrentCorruptRewriteRace: the corrupt-entry path
// under contention. Each round the entry file is corrupted, then a pack
// of readers hammers Lookup while a writer rewrites the entry clean
// (atomic temp + rename) — the interleavings a shared CacheDir sees
// when several processes recover from a crash-damaged store at once.
// A reader may observe the corrupt blob (miss + eviction) or the clean
// one (hit), and an eviction may even race the rewrite and delete the
// fresh entry; what must never happen is a hit with a wrong outcome, a
// panic, or an unusable store.
func TestDiskCacheConcurrentCorruptRewriteRace(t *testing.T) {
	dir := t.TempDir()
	tc := New(fpga.NewCycloneV(), diskCacheOptions(dir))
	if res := waitResult(t, tc, smallCounter, 0); res.Err != nil {
		t.Fatal(res.Err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "bs-*.bits"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("expected one entry file, got %v (%v)", entries, err)
	}
	path := entries[0]
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := decodeBitsEntry(clean)
	if err != nil {
		t.Fatal(err)
	}
	good := BitMeta{Key: want.Key, AreaLEs: want.AreaLEs,
		RawAreaLEs: want.RawAreaLEs, CritPath: want.CritPath}
	corrupt := append([]byte(nil), clean...)
	corrupt[len(corrupt)/2] ^= 0x40

	// Serial sanity first: a corrupt entry is a counted miss.
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	store := diskTier{dir: dir}
	var st Stats
	if _, ok := store.Lookup(want.Key, &st); ok {
		t.Fatal("corrupt entry must miss")
	}
	if st.DiskCorrupt != 1 {
		t.Fatalf("stats after serial corrupt lookup: %+v", st)
	}

	const readers = 8
	const rounds = 25
	for round := 0; round < rounds; round++ {
		if err := os.WriteFile(path, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < readers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for k := 0; k < 4; k++ {
					meta, ok := store.Lookup(want.Key, new(Stats))
					if ok && (meta.AreaLEs != want.AreaLEs ||
						meta.RawAreaLEs != want.RawAreaLEs ||
						meta.CritPath != want.CritPath) {
						t.Errorf("round %d: lookup served a wrong outcome: %+v", round, meta)
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			store.Store(good, new(Stats))
		}()
		close(start)
		wg.Wait()
	}

	// Whatever interleaving won, the store ends usable: one rewrite
	// round-trips, and the entry serves cleanly again.
	store.Store(good, new(Stats))
	meta, ok := store.Lookup(want.Key, new(Stats))
	if !ok || meta != want {
		t.Fatalf("store unusable after the race: ok=%v meta=%+v want=%+v", ok, meta, want)
	}
}

func TestDiskCacheRevalidatesAgainstDevice(t *testing.T) {
	dir := t.TempDir()
	a := New(fpga.NewCycloneV(), diskCacheOptions(dir))
	if res := waitResult(t, a, bigDatapath, 0); res.Err != nil {
		t.Fatal(res.Err)
	}

	// The same design no longer fits a tiny device: the disk entry is
	// recorded against a successful flow, but validity is re-checked
	// against the live device — the fit failure surfaces normally
	// instead of a bogus hit.
	tiny := New(fpga.NewDevice(4, 50_000_000), diskCacheOptions(dir))
	res := waitResult(t, tiny, bigDatapath, 0)
	if res.Err == nil {
		t.Fatal("design should not fit a 4-LE device")
	}
	if res.CacheHit {
		t.Fatal("failed fit must not be served from disk")
	}
	if st := tiny.Stats(); st.DiskHits != 0 {
		t.Fatalf("stats: %+v", st)
	}
}
