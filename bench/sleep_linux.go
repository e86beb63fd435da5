package main

import (
	"runtime"
	"syscall"
)

// preciseSleeper returns a sleep function for an open-loop sender, which
// must wake at each due time: the runtime's idle timer wakes up to a
// millisecond late (its poller waits in whole milliseconds), which would
// show as lateness of every send. nanosleep on a thread of its own wakes
// within tens of microseconds. Call the returned release when done, on
// the same goroutine.
func preciseSleeper() (sleep func(ns int64), release func()) {
	runtime.LockOSThread()
	return func(ns int64) {
		ts := syscall.NsecToTimespec(ns)
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
	}, runtime.UnlockOSThread
}
