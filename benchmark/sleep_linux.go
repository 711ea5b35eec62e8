package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks the sender until t. The runtime's own timers are
// served from epoll_wait, whose timeout has millisecond granularity: a
// time.Sleep in an otherwise idle generator overshoots by half a
// millisecond on average, which is more than a hot request takes. A
// nanosleep on the sender's own thread wakes within the kernel's timer
// slack (50 us by default).
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the remainder
	}
}
