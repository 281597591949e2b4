package main

import (
	"bytes"
	"os"
	"strconv"
)

// wchar returns the bytes this process has passed to write calls so far
// (/proc/self/io), or 0 where that file is unavailable.
func wchar() int64 {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if v, ok := bytes.CutPrefix(line, []byte("wchar:")); ok {
			n, err := strconv.ParseInt(string(bytes.TrimSpace(v)), 10, 64)
			if err == nil {
				return n
			}
		}
	}
	return 0
}

// openFDs returns the number of open file descriptors (/proc/self/fd), or
// 0 where that directory is unavailable.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0
	}
	return len(ents)
}
