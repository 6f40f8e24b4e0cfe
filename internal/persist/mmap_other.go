//go:build !unix && !windows

package persist

import (
	"errors"
	"os"
	"runtime"
)

func mappable() error {
	return errors.New("persist: journal segments are memory-mapped, which GOOS=" + runtime.GOOS + " does not support")
}

func mapFile(*os.File, int) ([]byte, error) { return nil, mappable() }
func unmapFile([]byte) error                { return nil }
func flushMapping([]byte) error             { return nil }
