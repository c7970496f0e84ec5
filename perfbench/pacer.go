package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer sleeps on a timerfd read through the runtime's network poller.
// time.Sleep rounds waits up to the poller's 1 ms timeout whenever the
// runtime is idle, which adds ~0.5 ms of generator lateness to every request
// timed from its due time; a raw nanosleep is precise but holds a P (of two)
// for the whole wait. A timerfd wakes the poller within tens of microseconds
// and leaves the P free meanwhile.
type pacer struct {
	fd uintptr
	f  *os.File
}

type itimerspec struct{ interval, value syscall.Timespec }

func newPacer() (*pacer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	return &pacer{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// sleep waits d; d must be positive (a zero timer would never fire).
func (p *pacer) sleep(d time.Duration) error {
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	var expirations [8]byte
	_, err := p.f.Read(expirations[:])
	return err
}

func (p *pacer) close() error { return p.f.Close() }
