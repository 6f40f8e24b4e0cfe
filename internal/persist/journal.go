package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Journal is one append-only write-ahead segment file. Every record
// carries an absolute sequence number, a kind byte, a length, and a CRC
// over all of it; a torn tail (a crash mid-append) is detected by the CRC
// or the length framing and truncated on reopen — a record is either
// durably, verifiably whole or it never happened.
//
// An append encodes the record in place in a shared mapping of the file —
// a copy, no system call — and leaves it in the page cache, as write(2)
// did. The file is reserved ahead of the records with written zeros, which
// Close trims; a killed writer's zero tail reads as the end of the log.
//
// Record layout (little-endian):
//
//	magic  [2]byte "jr"
//	kind   uint8
//	_      uint8 (reserved, zero)
//	seq    uint64
//	len    uint32
//	data   [len]byte
//	crc    uint32  // CRC-32 (IEEE) over kind..data
type Journal struct {
	f       *os.File
	m       []byte // mapping of the reserved file prefix; nil before the first append
	lastSeq uint64
	count   int
	bytes   int64    // logical end: the byte size of the valid records
	dirty   bool     // appended since last Sync
	pre     [12]byte // recordCRC's scratch
}

// Record is one decoded journal record.
type Record struct {
	Seq  uint64
	Kind byte
	Data []byte
}

var journalMagic = [2]byte{'j', 'r'}

const recordHeaderLen = 2 + 1 + 1 + 8 + 4

// maxRecordLen bounds a single record; anything larger in a file is
// treated as corruption rather than attempted as one allocation.
const maxRecordLen = 1 << 28

// minMapping is a segment's first reservation, made (like every later
// one, which doubles it) by writing zeros a chunk at a time.
const minMapping = 64 << 10

var zeros [minMapping]byte

// OpenJournal opens (creating if needed) a journal segment for
// appending. Existing records are scanned and verified; a torn or
// corrupt tail — or a killed writer's reserved zeros — is truncated
// away. The valid prefix is returned so a recovering caller can replay
// it. A platform that cannot map files refuses here.
func OpenJournal(path string) (*Journal, []Record, error) {
	if err := mappable(); err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	data, err := readSegment(f)
	recs, goodLen := scanRecords(data)
	if err == nil && int64(len(data)) > goodLen {
		// Torn tail, or a killed writer's reserved zeros: drop it so the
		// next append starts on a record boundary.
		if err = f.Truncate(goodLen); err == nil {
			err = f.Sync()
		}
	}
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	j := &Journal{f: f, count: len(recs), bytes: goodLen}
	if len(recs) > 0 {
		j.lastSeq = recs[len(recs)-1].Seq
	}
	return j, recs, nil
}

// ReadJournal decodes a segment file without opening it for writing; a
// torn tail is ignored (the valid prefix is returned). A missing file
// reads as empty.
func ReadJournal(path string) ([]Record, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data, err := readSegment(f)
	recs, _ := scanRecords(data)
	return recs, err
}

// readSegment reads as many bytes of a segment as its size says.
func readSegment(f *os.File) ([]byte, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data := make([]byte, st.Size())
	_, err = io.ReadFull(f, data)
	return data, err
}

// scanRecords decodes records from the start of data, stopping at the
// first framing or CRC violation; it returns the valid records (whose
// Data alias data) and the byte length of the valid prefix.
func scanRecords(data []byte) ([]Record, int64) {
	var recs []Record
	pre := make([]byte, 12)
	off := 0
	for len(data)-off >= recordHeaderLen {
		rec := data[off:]
		if rec[0] != journalMagic[0] || rec[1] != journalMagic[1] {
			break
		}
		kind := rec[2]
		seq := binary.LittleEndian.Uint64(rec[4:12])
		n := binary.LittleEndian.Uint32(rec[12:16])
		if n > maxRecordLen || len(rec) < recordHeaderLen+int(n)+4 {
			break
		}
		body := rec[recordHeaderLen : recordHeaderLen+n : recordHeaderLen+n]
		if recordCRC(pre, kind, seq, body) != binary.LittleEndian.Uint32(rec[recordHeaderLen+n:]) {
			break
		}
		if len(recs) > 0 && seq <= recs[len(recs)-1].Seq {
			// Sequence numbers must strictly increase; a regression means
			// the file was spliced or corrupted in a CRC-colliding way.
			break
		}
		recs = append(recs, Record{Seq: seq, Kind: kind, Data: body})
		off += recordHeaderLen + int(n) + 4
	}
	return recs, int64(off)
}

// recordCRC is the CRC over kind, three zeros, seq and data; pre is 12
// bytes of the caller's scratch (crc32 would move a local to the heap).
func recordCRC(pre []byte, kind byte, seq uint64, data []byte) uint32 {
	pre[0], pre[1], pre[2], pre[3] = kind, 0, 0, 0
	binary.LittleEndian.PutUint64(pre[4:12], seq)
	return crc32.Update(crc32.Update(0, crc32.IEEETable, pre), crc32.IEEETable, data)
}

// Append writes one record with the given sequence number. Sequence
// numbers must strictly increase across the journal's lifetime (they
// are absolute, surviving segment rotation). The record reaches the OS
// when Append returns and stable storage at Sync.
func (j *Journal) Append(seq uint64, kind byte, data []byte) error {
	if seq <= j.lastSeq && j.count > 0 {
		return fmt.Errorf("persist: journal sequence regressed: %d after %d", seq, j.lastSeq)
	}
	n := recordHeaderLen + len(data) + 4
	if j.bytes+int64(n) > int64(len(j.m)) {
		if err := j.grow(n); err != nil {
			return err
		}
	}
	rec := j.m[j.bytes : j.bytes+int64(n)]
	rec[0], rec[1], rec[2], rec[3] = journalMagic[0], journalMagic[1], kind, 0
	binary.LittleEndian.PutUint64(rec[4:12], seq)
	binary.LittleEndian.PutUint32(rec[12:16], uint32(len(data)))
	copy(rec[recordHeaderLen:], data)
	binary.LittleEndian.PutUint32(rec[recordHeaderLen+len(data):], recordCRC(j.pre[:], kind, seq, data))
	j.lastSeq = seq
	j.count++
	j.bytes += int64(n)
	j.dirty = true
	return nil
}

// grow reserves room for an n-byte record: it extends the file with
// written zeros to double the mapped size (or more) and remaps. Writing
// the zeros reserves the blocks, so a full disk fails here as an
// ordinary error instead of faulting on a mapped page later.
func (j *Journal) grow(n int) error {
	size := max(2*int64(len(j.m)), minMapping)
	for size < j.bytes+int64(n) {
		size *= 2
	}
	for off := max(int64(len(j.m)), j.bytes); off < size; off += minMapping {
		if _, err := j.f.WriteAt(zeros[:min(size-off, minMapping)], off); err != nil {
			return err
		}
	}
	m, err := mapFile(j.f, int(size))
	if err != nil {
		return err
	}
	if j.m != nil {
		_ = unmapFile(j.m) // the new mapping serves; a stuck old one costs address space only
	}
	j.m = m
	return nil
}

// Sync flushes appended records to stable storage.
func (j *Journal) Sync() error {
	if !j.dirty {
		return nil
	}
	j.dirty = false
	if err := flushMapping(j.m); err != nil {
		return err
	}
	return j.f.Sync()
}

// LastSeq returns the sequence number of the most recent record (0 when
// the journal is empty).
func (j *Journal) LastSeq() uint64 { return j.lastSeq }

// Close unmaps the segment, trims the reserved zeros — before the fsync,
// so they never reach the disk and the trim is nearly free — syncs and
// closes it, leaving a file of exactly its records.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	var err error
	if j.m != nil {
		err = errors.Join(flushMapping(j.m), unmapFile(j.m), j.f.Truncate(j.bytes))
		j.m = nil
	}
	if j.dirty {
		err = errors.Join(err, j.f.Sync())
	}
	err = errors.Join(err, j.f.Close())
	j.f, j.dirty = nil, false
	return err
}
