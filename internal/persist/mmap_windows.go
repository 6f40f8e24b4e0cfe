//go:build windows

package persist

import (
	"os"
	"syscall"
	"unsafe"
)

func mappable() error { return nil }

// mapFile maps f's first size bytes; the view outlives the closed handle.
func mapFile(f *os.File, size int) ([]byte, error) {
	h, err := syscall.CreateFileMapping(syscall.Handle(f.Fd()), nil, syscall.PAGE_READWRITE, uint32(uint64(size)>>32), uint32(size), nil)
	if err != nil {
		return nil, os.NewSyscallError("CreateFileMapping", err)
	}
	defer syscall.CloseHandle(h)
	addr, err := syscall.MapViewOfFile(h, syscall.FILE_MAP_WRITE, 0, 0, uintptr(size))
	if err != nil {
		return nil, os.NewSyscallError("MapViewOfFile", err)
	}
	return unsafe.Slice(*(**byte)(unsafe.Pointer(&addr)), size), nil
}

func unmapFile(m []byte) error { return syscall.UnmapViewOfFile(uintptr(unsafe.Pointer(&m[0]))) }

// flushMapping writes the view's dirty pages to the file, which Sync's
// FlushFileBuffers then makes durable.
func flushMapping(m []byte) error {
	return syscall.FlushViewOfFile(uintptr(unsafe.Pointer(&m[0])), uintptr(len(m)))
}
