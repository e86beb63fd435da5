package jsonlog

import (
	"syscall"
	"testing"
)

// appendOverLimit appends recs with the process's file size limit set
// just past the log's current size, so the kernel accepts a prefix of
// the batch and then refuses the rest, as a full disk would. The Go
// runtime ignores the SIGXFSZ this raises; the write returns EFBIG.
func appendOverLimit(t *testing.T, l *Log[testRecord], recs ...testRecord) error {
	t.Helper()
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Skipf("getrlimit: %v", err)
	}
	lim := old
	lim.Cur = uint64(l.Size() + 16)
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Skipf("setrlimit: %v", err)
	}
	defer func() {
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
			t.Fatalf("restore file size limit: %v", err)
		}
	}()
	return l.Append(recs...)
}
