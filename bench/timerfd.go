package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// timerFD sleeps through a Linux timerfd polled by the Go network poller.
// time.Sleep rounds sub-millisecond waits up to the poller's 1ms epoll
// granularity, which on a 2-core machine sent open-loop requests 0.7–1ms
// late at the median; a timerfd wakes the poller on the hrtimer instead
// (~30–60µs late), so the open loop measures the daemon rather than the
// generator's clock.
type timerFD struct{ f *os.File }

func newTimerFD() (*timerFD, error) {
	const clockMonotonic = 1
	fd, _, e := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if e != 0 {
		return nil, os.NewSyscallError("timerfd_create", e)
	}
	return &timerFD{f: os.NewFile(fd, "timerfd")}, nil
}

// sleep blocks the calling goroutine (not its thread) for d.
func (t *timerFD) sleep(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	// struct itimerspec{it_interval, it_value}, each {tv_sec, tv_nsec}.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	rc, err := t.f.SyscallConn()
	if err != nil {
		return err
	}
	var errno syscall.Errno
	if err := rc.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	}); err != nil {
		return err
	}
	if errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	var expirations [8]byte
	_, err = t.f.Read(expirations[:])
	return err
}

func (t *timerFD) Close() error { return t.f.Close() }
