package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// sample is the client's record of one request. Times are nanoseconds
// since the run's epoch. Latency is end − due: in an open loop due is
// the request's scheduled send time, so a stall that delays later sends
// is charged to them; in a closed loop due is the moment the client
// became free, so start − due is the client's own gap between requests.
type sample struct {
	class  int
	ok     bool
	traced bool
	points int
	due    int64
	start  int64
	end    int64
}

func (s sample) latencyMs() float64 { return float64(s.end-s.due) / 1e6 }
func (s sample) lateMs() float64    { return float64(s.start-s.due) / 1e6 }

// sendFunc sends request k (the k-th of the workload's sequence), due at
// due, and returns its record.
type sendFunc func(k int, due int64) sample

// closedLoop runs clients that each send the next request of one shared
// sequence as soon as their previous request completes, until the
// clock passes stop. Request k is the same request on every run with
// the same seed, whichever client happens to send it.
func closedLoop(clients int, stop int64, now func() int64, send sendFunc) []sample {
	var next atomic.Int64
	out := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			due := now()
			for due < stop {
				s := send(int(next.Add(1)-1), due)
				out[c] = append(out[c], s)
				due = s.end
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, s := range out {
		all = append(all, s...)
	}
	return all
}

// openLoop sends request k at due time k·interval, for every
// due time before stop, whether or not earlier requests have finished.
// The schedule is served by a pool of senders: a sender that is free
// takes the next due request, sleeps until its due time and sends it.
// When every sender is busy the requests behind them go out late, and
// their latency, timed from due, includes the wait. Each sender sleeps
// itself, so no hand-off between goroutines adds to the lateness.
func openLoop(senders int, interval time.Duration, stop int64, now func() int64, send sendFunc) []sample {
	var next atomic.Int64
	out := make([][]sample, senders)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sleep, release := preciseSleeper()
			defer release()
			for {
				k := int(next.Add(1) - 1)
				due := int64(k) * int64(interval)
				if due >= stop {
					return
				}
				if d := due - now(); d > 0 {
					sleep(d)
				}
				out[s] = append(out[s], send(k, due))
			}
		}(s)
	}
	wg.Wait()
	var all []sample
	for _, s := range out {
		all = append(all, s...)
	}
	return all
}
