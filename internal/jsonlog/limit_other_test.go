//go:build !linux

package jsonlog

import "testing"

func appendOverLimit(t *testing.T, _ *Log[testRecord], _ ...testRecord) error {
	t.Skip("the file size limit is set through a Linux rlimit")
	return nil
}
