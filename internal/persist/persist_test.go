package persist

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestContainerRoundTrip(t *testing.T) {
	secs := []Section{
		{Name: "meta", Data: []byte("steps=42\n")},
		{Name: "state:main.led", Data: []byte("val=8'hff\n")},
		{Name: "source", Data: []byte("wire x;\n#looks like a directive\nbinary\x00ok")},
		{Name: "empty", Data: nil},
	}
	blob := EncodeContainer("cascade-test", 3, secs)
	ver, got, err := DecodeContainer("cascade-test", blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if ver != 3 {
		t.Fatalf("version = %d, want 3", ver)
	}
	if len(got) != len(secs) {
		t.Fatalf("sections = %d, want %d", len(got), len(secs))
	}
	for i := range secs {
		if got[i].Name != secs[i].Name || !bytes.Equal(got[i].Data, secs[i].Data) {
			t.Fatalf("section %d mismatch: %+v vs %+v", i, got[i], secs[i])
		}
	}
	if _, ok := FindSection(got, "state:main.led"); !ok {
		t.Fatal("FindSection missed a section")
	}
}

// TestContainerBytes: the encoder's output is pinned byte for byte (the
// record was written by the fmt-based encoder it replaced), whether it
// renders into a buffer or streams into a file, and whether a section
// was checksummed ahead (SealedSection) or as it is written.
func TestContainerBytes(t *testing.T) {
	const want = "#cascade-test v7\n#section meta len=9 crc=47655017\nsteps=42\n\n" +
		"#section state:main.led len=5 crc=aaf74311\n\x00\x01\x02\n\xff\n#section empty len=0 crc=00000000\n\n" +
		"#section source len=24 crc=241af5aa\nwire x;\n#end sections=1\n\n#end sections=4 crc=8497c070\n"
	secs := []Section{
		{Name: "meta", Data: []byte("steps=42\n")},
		{Name: "state:main.led", Data: []byte{0, 1, 2, '\n', 0xff}},
		{Name: "empty", Data: nil},
		SealedSection("source", []byte("wire x;\n#end sections=1\n")),
	}
	if got := EncodeContainer("cascade-test", 7, secs); string(got) != want {
		t.Fatalf("encoded:\n%q\nwant:\n%q", got, want)
	}
	path := filepath.Join(t.TempDir(), "c")
	n, err := WriteFileAtomic(path, Container{"cascade-test", 7, secs}, 0o644)
	if got, _ := os.ReadFile(path); err != nil || n != int64(len(want)) || string(got) != want {
		t.Fatalf("streamed %d B (%v):\n%q\nwant:\n%q", n, err, got, want)
	}
}

func TestContainerDetectsCorruption(t *testing.T) {
	blob := EncodeContainer("cascade-test", 1, []Section{
		{Name: "a", Data: []byte("payload-a")},
		{Name: "b", Data: []byte("payload-b")},
	})
	// Flipping any single payload byte must fail decoding.
	idx := bytes.Index(blob, []byte("payload-a"))
	for _, flip := range []int{idx, idx + 3, len(blob) - 2} {
		bad := append([]byte(nil), blob...)
		bad[flip] ^= 0x41
		if _, _, err := DecodeContainer("cascade-test", bad); err == nil {
			t.Fatalf("corruption at byte %d went undetected", flip)
		}
	}
	// Truncation at every length must fail (never half-decode).
	for n := 0; n < len(blob); n++ {
		if _, _, err := DecodeContainer("cascade-test", blob[:n]); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", n)
		}
	}
	// Wrong magic.
	if _, _, err := DecodeContainer("other", blob); err == nil {
		t.Fatal("wrong magic went undetected")
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "file.dat")
	if _, err := WriteFileAtomic(path, strings.NewReader("first"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteFileAtomic(path, strings.NewReader("second"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "second" {
		t.Fatalf("read back %q, %v", got, err)
	}
	// No temp litter.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("directory not clean: %v", entries)
	}
}

func TestJournalAppendReopenReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.wal")
	j, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal has %d records", len(recs))
	}
	for i := 1; i <= 5; i++ {
		if err := j.Append(uint64(i), byte(i%3), []byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(recs) != 5 || recs[4].Seq != 5 || string(recs[2].Data) != "rec-3" {
		t.Fatalf("replayed %d records, tail %+v", len(recs), recs)
	}
	if j2.LastSeq() != 5 {
		t.Fatalf("LastSeq = %d", j2.LastSeq())
	}
	// Appends continue after the replayed prefix.
	if err := j2.Append(6, 1, []byte("rec-6")); err != nil {
		t.Fatal(err)
	}
	if err := j2.Append(6, 1, []byte("dup")); err == nil {
		t.Fatal("sequence regression not rejected")
	}
}

func TestJournalTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.wal")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := j.Append(uint64(i), 1, []byte(strings.Repeat("x", 20))); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	whole, _ := os.ReadFile(path)

	// Tear the file at every byte boundary inside the last record: reopen
	// must recover exactly the first two records and truncate the rest.
	recLen := len(whole) / 3
	for cut := 2*recLen + 1; cut < len(whole); cut++ {
		torn := filepath.Join(t.TempDir(), "torn.wal")
		if err := os.WriteFile(torn, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, recs, err := OpenJournal(torn)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if len(recs) != 2 {
			t.Fatalf("cut=%d: recovered %d records, want 2", cut, len(recs))
		}
		st, _ := os.Stat(torn)
		if st.Size() != int64(2*recLen) {
			t.Fatalf("cut=%d: torn tail not truncated (size %d)", cut, st.Size())
		}
		// And the journal still accepts appends on the clean boundary.
		if err := j2.Append(3, 1, []byte("replacement")); err != nil {
			t.Fatal(err)
		}
		j2.Close()
	}

	// A corrupted byte mid-record cuts replay at the previous boundary.
	bad := append([]byte(nil), whole...)
	bad[recLen+recordHeaderLen+3] ^= 0xff
	badPath := filepath.Join(t.TempDir(), "bad.wal")
	os.WriteFile(badPath, bad, 0o644)
	j3, recs, err := OpenJournal(badPath)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if len(recs) != 1 {
		t.Fatalf("corrupt record: recovered %d records, want 1", len(recs))
	}
}

// storeDecoder treats the payload as "seq=<n>" text.
func storeDecoder(payload []byte) (uint64, error) {
	var seq uint64
	if _, err := fmt.Sscanf(string(payload), "seq=%d", &seq); err != nil {
		return 0, err
	}
	return seq, nil
}

func ckptPayload(seq uint64) []byte { return []byte(fmt.Sprintf("seq=%d", seq)) }

func TestStoreCheckpointRotationAndRecovery(t *testing.T) {
	dir := t.TempDir()
	s, st, err := Open(dir, storeDecoder)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Empty() {
		t.Fatal("fresh store not empty")
	}
	seq := uint64(0)
	appendN := func(n int) {
		for i := 0; i < n; i++ {
			seq++
			if err := s.Append(seq, 1, []byte(fmt.Sprintf("r%d", seq))); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	appendN(4)
	if _, err := s.WriteCheckpoint(bytes.NewReader(ckptPayload(seq)), 2); err != nil {
		t.Fatal(err)
	}
	appendN(3)
	if _, err := s.WriteCheckpoint(bytes.NewReader(ckptPayload(seq)), 2); err != nil {
		t.Fatal(err)
	}
	appendN(2)
	s.Close()

	// Recovery: newest checkpoint (seq 7) + records 8..9.
	_, st, err = Open(dir, storeDecoder)
	if err != nil {
		t.Fatal(err)
	}
	if st.CheckpointSeq != 7 || len(st.Records) != 2 || st.Records[0].Seq != 8 {
		t.Fatalf("recovered ckptSeq=%d records=%+v", st.CheckpointSeq, st.Records)
	}

	// Corrupt the newest checkpoint: recovery falls back to the previous
	// one and replays through the corrupted one's segment to the same
	// position.
	ckpts, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt"))
	if len(ckpts) != 2 {
		t.Fatalf("retention kept %d checkpoints, want 2: %v", len(ckpts), ckpts)
	}
	if err := os.WriteFile(ckpts[len(ckpts)-1], []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, st, err = Open(dir, storeDecoder)
	if err != nil {
		t.Fatal(err)
	}
	if st.CheckpointSeq != 4 {
		t.Fatalf("fallback checkpoint seq = %d, want 4", st.CheckpointSeq)
	}
	if len(st.Records) != 5 || st.Records[0].Seq != 5 || st.Records[4].Seq != 9 {
		t.Fatalf("fallback replay records = %+v", st.Records)
	}
	if len(st.CorruptCheckpoints) != 1 {
		t.Fatalf("corrupt checkpoints = %v", st.CorruptCheckpoints)
	}
}

func TestStoreRetentionPrunesOldSegments(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, storeDecoder)
	if err != nil {
		t.Fatal(err)
	}
	seq := uint64(0)
	for ck := 0; ck < 5; ck++ {
		for i := 0; i < 2; i++ {
			seq++
			s.Append(seq, 1, []byte("r"))
		}
		if _, err := s.WriteCheckpoint(bytes.NewReader(ckptPayload(seq)), 2); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	ckpts, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt"))
	wals, _ := filepath.Glob(filepath.Join(dir, "wal-*.wal"))
	if len(ckpts) != 2 {
		t.Fatalf("kept %d checkpoints, want 2", len(ckpts))
	}
	if len(wals) != 3 {
		t.Fatalf("kept %d segments, want 3: %v", len(wals), wals)
	}
	// And the kept state still recovers to the newest position.
	_, st, err := Open(dir, storeDecoder)
	if err != nil {
		t.Fatal(err)
	}
	if st.CheckpointSeq != 10 || len(st.Records) != 0 {
		t.Fatalf("recovered ckptSeq=%d records=%d", st.CheckpointSeq, len(st.Records))
	}
}

func TestStoreCrashBetweenCheckpointAndRotation(t *testing.T) {
	// Simulate: checkpoint 1 written but the journal never rotated (the
	// process died in between). Records the checkpoint covers still sit
	// in wal-000000; recovery must skip them by sequence number.
	dir := t.TempDir()
	s, _, err := Open(dir, storeDecoder)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		s.Append(uint64(i), 1, []byte(fmt.Sprintf("r%d", i)))
	}
	s.Sync()
	s.Close()
	// Hand-write the checkpoint file exactly as WriteCheckpoint would,
	// without rotating.
	if _, err := WriteFileAtomic(filepath.Join(dir, "ckpt-000001.ckpt"), bytes.NewReader(ckptPayload(4)), 0o644); err != nil {
		t.Fatal(err)
	}
	_, st, err := Open(dir, storeDecoder)
	if err != nil {
		t.Fatal(err)
	}
	if st.CheckpointSeq != 4 || len(st.Records) != 2 || st.Records[0].Seq != 5 {
		t.Fatalf("recovered ckptSeq=%d records=%+v", st.CheckpointSeq, st.Records)
	}
}

// TestStorePrunesCrashLeftovers: a crash after a checkpoint and its
// rotation but before pruning leaves files below the retention horizon;
// the first checkpoint after reopening removes them.
func TestStorePrunesCrashLeftovers(t *testing.T) {
	dir := t.TempDir()
	for i := 1; i <= 4; i++ {
		if _, err := WriteFileAtomic(filepath.Join(dir, fmt.Sprintf("ckpt-%06d.ckpt", i)), bytes.NewReader(ckptPayload(uint64(2*i))), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i <= 4; i++ {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("wal-%06d.wal", i)), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, st, err := Open(dir, storeDecoder)
	if err != nil {
		t.Fatal(err)
	}
	if st.CheckpointSeq != 8 {
		t.Fatalf("recovered ckptSeq=%d, want 8", st.CheckpointSeq)
	}
	s.Append(9, 1, []byte("r"))
	if _, err := s.WriteCheckpoint(bytes.NewReader(ckptPayload(9)), 2); err != nil {
		t.Fatal(err)
	}
	s.Close()
	ckpts, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt"))
	wals, _ := filepath.Glob(filepath.Join(dir, "wal-*.wal"))
	var names []string
	for _, f := range append(ckpts, wals...) {
		names = append(names, filepath.Base(f))
	}
	want := "ckpt-000004.ckpt ckpt-000005.ckpt wal-000003.wal wal-000004.wal wal-000005.wal"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("after the first checkpoint: %s, want %s", got, want)
	}
}

// TestStorePruneSkipsIndexGaps: pruning goes by the indices Open found,
// so a stray file with a far higher index does not make it walk the gap.
func TestStorePruneSkipsIndexGaps(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir, storeDecoder)
	if err != nil {
		t.Fatal(err)
	}
	s.Append(1, 1, []byte("r"))
	if _, err := s.WriteCheckpoint(bytes.NewReader(ckptPayload(1)), 2); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := os.WriteFile(filepath.Join(dir, "ckpt-900000000000.ckpt"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, st, err := Open(dir, storeDecoder)
	if err != nil {
		t.Fatal(err)
	}
	if st.CheckpointSeq != 1 {
		t.Fatalf("recovered ckptSeq=%d, want 1", st.CheckpointSeq)
	}
	for seq := uint64(2); seq <= 4; seq++ {
		s.Append(seq, 1, []byte("r"))
		if _, err := s.WriteCheckpoint(bytes.NewReader(ckptPayload(seq)), 2); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	ckpts, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt"))
	wals, _ := filepath.Glob(filepath.Join(dir, "wal-*.wal"))
	var names []string
	for _, f := range append(ckpts, wals...) {
		names = append(names, filepath.Base(f))
	}
	want := "ckpt-900000000002.ckpt ckpt-900000000003.ckpt wal-900000000001.wal wal-900000000002.wal wal-900000000003.wal"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("after three checkpoints: %s, want %s", got, want)
	}
}
