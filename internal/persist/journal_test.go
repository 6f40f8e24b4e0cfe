package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// legacyAppend is the encoder segments were written with before appends
// went through a mapping: one write(2) per record, CRC through a hasher.
// It pins the on-disk format in both directions.
func legacyAppend(t testing.TB, f *os.File, seq uint64, kind byte, data []byte) {
	t.Helper()
	buf := make([]byte, recordHeaderLen+len(data)+4)
	buf[0], buf[1] = 'j', 'r'
	buf[2] = kind
	binary.LittleEndian.PutUint64(buf[4:12], seq)
	binary.LittleEndian.PutUint32(buf[12:16], uint32(len(data)))
	copy(buf[recordHeaderLen:], data)
	h := crc32.NewIEEE()
	var pre [12]byte
	pre[0] = kind
	binary.LittleEndian.PutUint64(pre[4:12], seq)
	h.Write(pre[:])
	h.Write(data)
	binary.LittleEndian.PutUint32(buf[recordHeaderLen+len(data):], h.Sum32())
	if _, err := f.Write(buf); err != nil {
		t.Fatal(err)
	}
}

// testRecords returns n records whose sizes vary from a few bytes to
// past a whole first mapping, so a run of them crosses several remaps.
func testRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		size := (i*i*37)%900 + 1
		if i%23 == 22 {
			size = minMapping + 5 // larger than the first reservation
		}
		data := bytes.Repeat([]byte{byte('a' + i%26)}, size)
		recs[i] = Record{Seq: uint64(i + 1), Kind: byte(i % 4), Data: data}
	}
	return recs
}

func appendAll(t testing.TB, j *Journal, recs []Record) {
	t.Helper()
	for _, r := range recs {
		if err := j.Append(r.Seq, r.Kind, r.Data); err != nil {
			t.Fatal(err)
		}
	}
}

func sameRecords(t testing.TB, what string, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].Seq != want[i].Seq || got[i].Kind != want[i].Kind || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("%s: record %d is seq %d kind %d len %d, want seq %d kind %d len %d", what, i,
				got[i].Seq, got[i].Kind, len(got[i].Data), want[i].Seq, want[i].Kind, len(want[i].Data))
		}
	}
}

// TestJournalKilledWriterZeroTail: a writer killed before Close leaves its
// records followed by the zeros it reserved. Reopening recovers exactly the
// records, truncates the zeros, and appends on a clean boundary.
func TestJournalKilledWriterZeroTail(t *testing.T) {
	dir := t.TempDir()
	live := filepath.Join(dir, "live.wal")
	j, _, err := OpenJournal(live)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(5)
	appendAll(t, j, recs)
	// What a kill leaves: the file as the page cache holds it, unsynced and
	// unclosed.
	killed, err := os.ReadFile(live)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if len(killed) <= int(j.bytes) || !bytes.Equal(killed[j.bytes:], make([]byte, len(killed)-int(j.bytes))) {
		t.Fatalf("a live segment of %d record bytes is %d bytes long; want a zero tail", j.bytes, len(killed))
	}

	path := filepath.Join(dir, "killed.wal")
	if err := os.WriteFile(path, killed, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, got, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, "recovered", got, recs)
	if st, _ := os.Stat(path); st.Size() != j.bytes {
		t.Fatalf("zero tail not truncated: %d bytes, records end at %d", st.Size(), j.bytes)
	}
	next := Record{Seq: 6, Kind: 2, Data: []byte("after the kill")}
	appendAll(t, j2, []Record{next})
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	got, err = ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, "after append", got, append(recs, next))
}

// TestJournalRecordsStraddleRemap: records appended across several
// growths — one record larger than the first reservation, others landing
// just short of a mapping's end — read back identical, from the live file
// and from the closed one.
func TestJournalRecordsStraddleRemap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "seg.wal")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(300)
	appendAll(t, j, recs)
	if len(j.m) < 4*minMapping {
		t.Fatalf("mapping grew only to %d bytes; the test crosses no remap", len(j.m))
	}
	live, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, "live", live, recs)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	closed, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, "closed", closed, recs)
}

// TestJournalFormatCompatible: segments are byte-compatible with the
// write(2) encoder in both directions.
func TestJournalFormatCompatible(t *testing.T) {
	dir := t.TempDir()
	recs := testRecords(60)

	// Written by the old encoder: read, then appended to.
	old := filepath.Join(dir, "old.wal")
	f, err := os.Create(old)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[:40] {
		legacyAppend(t, f, r.Seq, r.Kind, r.Data)
	}
	f.Close()
	j, got, err := OpenJournal(old)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, "old segment", got, recs[:40])
	appendAll(t, j, recs[40:])
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err = ReadJournal(old)
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, "old segment appended to", got, recs)

	// Written through the mapping and closed: the old encoder's bytes.
	mapped := filepath.Join(dir, "mapped.wal")
	j, _, err = OpenJournal(mapped)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, recs)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	ref, err := os.Create(filepath.Join(dir, "ref.wal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		legacyAppend(t, ref, r.Seq, r.Kind, r.Data)
	}
	ref.Close()
	a, _ := os.ReadFile(mapped)
	b, _ := os.ReadFile(ref.Name())
	if !bytes.Equal(a, b) {
		t.Fatalf("closed mapped segment (%d bytes) differs from the write(2) encoding (%d bytes)", len(a), len(b))
	}
}

// TestJournalUnextendableSegment: a segment whose file cannot be extended
// (opened read-only) or mapped (opened write-only) fails the append with
// an ordinary error — no signal — and stays readable and closable.
func TestJournalUnextendableSegment(t *testing.T) {
	for _, flag := range []int{os.O_RDONLY, os.O_WRONLY} {
		t.Run(fmt.Sprintf("flag=%d", flag), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "seg.wal")
			j, _, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			j.f.Close()
			if j.f, err = os.OpenFile(path, flag, 0); err != nil {
				t.Fatal(err)
			}
			for seq := uint64(1); seq <= 3; seq++ {
				if err := j.Append(seq, 1, []byte("x")); err == nil {
					t.Fatalf("append %d into an unextendable segment succeeded", seq)
				}
			}
			if j.m != nil || j.bytes != 0 || j.count != 0 {
				t.Fatalf("a failed append left state behind: mapped %d, bytes %d, count %d", len(j.m), j.bytes, j.count)
			}
			j.Close()
			if recs, err := ReadJournal(path); err != nil || len(recs) != 0 {
				t.Fatalf("segment after failed appends: %d records, %v", len(recs), err)
			}
		})
	}
}

// TestJournalAppendAllocFree: an append is a copy into the mapping.
func TestJournalAppendAllocFree(t *testing.T) {
	j, _, err := OpenJournal(filepath.Join(t.TempDir(), "seg.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	rec := []byte("123456 7890123456789") // an advance record: "steps vnow"
	seq := uint64(1)
	if err := j.Append(seq, 3, rec); err != nil { // the first append maps
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		seq++
		if err := j.Append(seq, 3, rec); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Journal.Append allocates %.1f times", n)
	}
}

// FuzzJournalRecover writes records, then damages the closed segment —
// truncates it at any offset, flips any byte, or appends a zero tail — and
// requires OpenJournal to recover a prefix of what was written, never a
// record that was not, and to take the next append on a clean boundary.
func FuzzJournalRecover(f *testing.F) {
	f.Add(uint8(5), uint8(0), uint32(40), uint8(0))
	f.Add(uint8(9), uint8(1), uint32(77), uint8(0x10))
	f.Add(uint8(3), uint8(2), uint32(4096), uint8(0))
	f.Add(uint8(0), uint8(2), uint32(1), uint8(0))
	f.Fuzz(func(t *testing.T, n, mode uint8, at uint32, mask uint8) {
		recs := testRecords(int(n % 22)) // short of the first oversized record
		dir := t.TempDir()
		path := filepath.Join(dir, "seg.wal")
		j, _, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, j, recs)
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		switch mode % 3 {
		case 0:
			if len(data) > 0 {
				data = data[:int(at)%(len(data)+1)]
			}
		case 1:
			if len(data) > 0 {
				data[int(at)%len(data)] ^= mask | 1
			}
		case 2:
			data = append(data, make([]byte, int(at)%(2*minMapping))...)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		j, got, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) > len(recs) {
			t.Fatalf("recovered %d records of %d written", len(got), len(recs))
		}
		sameRecords(t, "recovered", got, recs[:len(got)])
		next := Record{Seq: uint64(len(got) + 1), Kind: 1, Data: []byte("next")}
		appendAll(t, j, []Record{next})
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := ReadJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		sameRecords(t, "after the next append", again, append(got[:len(got):len(got)], next))
	})
}
