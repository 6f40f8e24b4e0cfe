//go:build unix

package persist

import (
	"os"
	"syscall"
)

func mappable() error { return nil }

func mapFile(f *os.File, size int) ([]byte, error) {
	m, err := syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	return m, os.NewSyscallError("mmap", err)
}

func unmapFile(m []byte) error { return syscall.Munmap(m) }

// flushMapping is a no-op: a shared mapping's pages are the page cache's,
// which Sync's fsync writes back.
func flushMapping([]byte) error { return nil }
