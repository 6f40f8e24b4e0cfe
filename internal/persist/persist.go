// Package persist implements Cascade-Go's crash-safe persistence
// primitives: a versioned, checksummed section container (the snapshot
// and bitstream-cache file format), atomic file writes (temp file +
// fsync + rename), an append-only write-ahead journal whose records
// carry sequence numbers and CRCs (a torn tail is detected and
// truncated, never half-applied), and a checkpoint store that lays
// checkpoints and journal segments out in a directory so recovery can
// load the last good checkpoint and deterministically replay the
// journal suffix.
//
// The paper's §9 future-work section proposes using Cascade's ability to
// move programs between hardware and software mid-computation as the
// basis for virtual machine migration; SYNERGY (PAPERS.md) builds
// suspend/resume-to-disk on the same machinery. This package is the disk
// half of that story: nothing in it knows about the runtime — it deals
// in opaque payload bytes — so the container format is shared by
// checkpoints, :save snapshots, and the toolchain's on-disk bitstream
// cache.
package persist

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Section is one named, independently checksummed payload inside a
// container.
type Section struct {
	Name string
	Data []byte

	crc    uint32 // Data's CRC-32, when sealed
	sealed bool
}

// SealedSection returns a section checksummed now, once: a payload written
// into many containers (a program version's source, into each checkpoint)
// is not checksummed again by each.
func SealedSection(name string, data []byte) Section {
	return Section{Name: name, Data: data, crc: crc32.ChecksumIEEE(data), sealed: true}
}

// Container framing: a text header line carrying the magic and format
// version, then one length-delimited, CRC-tagged section per entry, then
// a trailer that seals the section count and a CRC over the section
// CRCs. Payload bytes are raw (length-delimited), so any content —
// including newlines or binary — frames safely, while the envelope stays
// inspectable with a pager.
//
//	#<magic> v<version>
//	#section <name> len=<n> crc=<crc32-hex>
//	<n raw payload bytes>
//	...
//	#end sections=<k> crc=<crc32-hex>

// Container is a container's contents. Its WriteTo is the one encoder:
// a checkpoint streams it into its file, EncodeContainer into a buffer.
type Container struct {
	Magic    string
	Version  int
	Sections []Section
}

// WriteTo writes the container to w, copying no payload: the framing
// goes through a small buffer and each payload straight to w.
func (c Container) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 512)
	var n int64
	put := func(b []byte) {
		k, _ := bw.Write(b) // the error is sticky: Flush returns it
		n += int64(k)
	}
	line := append(append(append(make([]byte, 0, 128), '#'), c.Magic...), " v"...)
	put(append(strconv.AppendInt(line, int64(c.Version), 10), '\n'))
	seal := crc32.NewIEEE()
	for _, s := range c.Sections {
		crc := s.crc
		if !s.sealed {
			crc = crc32.ChecksumIEEE(s.Data)
		}
		line = append(append(append(line[:0], "#section "...), s.Name...), " len="...)
		line = append(appendHex(append(strconv.AppendInt(line, int64(len(s.Data)), 10), " crc="...), crc), '\n')
		put(line)
		put(s.Data)
		put(line[len(line)-1:]) // a newline
		seal.Write(append(appendHex(append(append(line[:0], s.Name...), ':'), crc), ';'))
	}
	line = strconv.AppendInt(append(line[:0], "#end sections="...), int64(len(c.Sections)), 10)
	put(append(appendHex(append(line, " crc="...), seal.Sum32()), '\n'))
	return n, bw.Flush()
}

// appendHex appends x as eight lowercase hex digits.
func appendHex(b []byte, x uint32) []byte {
	for shift := 28; shift >= 0; shift -= 4 {
		b = append(b, "0123456789abcdef"[x>>shift&0xf])
	}
	return b
}

// EncodeContainer renders sections into a checksummed container.
func EncodeContainer(magic string, version int, secs []Section) []byte {
	n := 64 + len(magic) // the header and trailer lines, each section's header line
	for _, s := range secs {
		n += len(s.Name) + len(s.Data) + 50
	}
	buf := bytes.NewBuffer(make([]byte, 0, n))
	Container{magic, version, secs}.WriteTo(buf) // a buffer takes every write
	return buf.Bytes()
}

// DecodeContainer parses and verifies a container, returning its format
// version and sections. Any framing violation, length mismatch, or CRC
// mismatch is an error: a torn or corrupted file is detected, never
// half-decoded.
func DecodeContainer(magic string, data []byte) (int, []Section, error) {
	head, rest, ok := bytes.Cut(data, []byte("\n"))
	if !ok {
		return 0, nil, fmt.Errorf("persist: truncated %s container", magic)
	}
	var version int
	if _, err := fmt.Sscanf(string(head), "#"+magic+" v%d", &version); err != nil ||
		!strings.HasPrefix(string(head), "#"+magic+" v") {
		return 0, nil, fmt.Errorf("persist: not a %s container", magic)
	}
	var secs []Section
	seal := crc32.NewIEEE()
	for {
		head, tail, ok := bytes.Cut(rest, []byte("\n"))
		if !ok {
			return 0, nil, fmt.Errorf("persist: %s container missing trailer", magic)
		}
		line := string(head)
		if strings.HasPrefix(line, "#end ") {
			var n int
			var crc uint32
			if _, err := fmt.Sscanf(line, "#end sections=%d crc=%08x", &n, &crc); err != nil {
				return 0, nil, fmt.Errorf("persist: %s container trailer: %v", magic, err)
			}
			if n != len(secs) {
				return 0, nil, fmt.Errorf("persist: %s container lists %d sections, found %d", magic, n, len(secs))
			}
			if crc != seal.Sum32() {
				return 0, nil, fmt.Errorf("persist: %s container seal mismatch", magic)
			}
			return version, secs, nil
		}
		var name string
		var n int
		var crc uint32
		if _, err := fmt.Sscanf(line, "#section %s len=%d crc=%08x", &name, &n, &crc); err != nil {
			return 0, nil, fmt.Errorf("persist: %s container section header %.40q: %v", magic, line, err)
		}
		if n < 0 || n+1 > len(tail) {
			return 0, nil, fmt.Errorf("persist: %s container section %s truncated", magic, name)
		}
		payload := tail[:n]
		if tail[n] != '\n' {
			return 0, nil, fmt.Errorf("persist: %s container section %s misframed", magic, name)
		}
		if got := crc32.ChecksumIEEE(payload); got != crc {
			return 0, nil, fmt.Errorf("persist: %s container section %s corrupt (crc %08x, want %08x)", magic, name, got, crc)
		}
		secs = append(secs, Section{Name: name, Data: append([]byte(nil), payload...)})
		fmt.Fprintf(seal, "%s:%08x;", name, crc)
		rest = tail[n+1:]
	}
}

// FindSection returns the first section with the given name.
func FindSection(secs []Section, name string) ([]byte, bool) {
	for _, s := range secs {
		if s.Name == name {
			return s.Data, true
		}
	}
	return nil, false
}

// WriteFileAtomic writes what src writes to path via a temp file in the
// same directory, fsyncs it, renames it over path, and fsyncs the
// directory, returning the file's size. A crash at any point leaves
// either the previous file or the new one — never a torn mixture — and
// the temp file is cleaned up on error.
func WriteFileAtomic(path string, src io.WriterTo, perm os.FileMode) (int64, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return 0, err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	n, err := src.WriteTo(tmp)
	if err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Chmod(perm); err != nil {
		tmp.Close()
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmpName, path); err != nil {
		return 0, err
	}
	return n, syncDir(dir)
}

// syncDir fsyncs a directory so a rename is durable. Some platforms
// refuse to fsync directories; that is not fatal (the rename itself is
// still atomic, durability just rides the next metadata flush).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	d.Sync()
	return nil
}

// parseIndexedName extracts the numeric index from names like
// "ckpt-000042.ckpt" given prefix "ckpt-" and suffix ".ckpt".
func parseIndexedName(name, prefix, suffix string) (int, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	n, err := strconv.Atoi(mid)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}
