//go:build !linux

package main

import "time"

// preciseSleeper falls back to the runtime timer off Linux.
func preciseSleeper() (sleep func(ns int64), release func()) {
	return func(ns int64) { time.Sleep(time.Duration(ns)) }, func() {}
}
