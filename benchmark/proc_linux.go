package main

import "syscall"

// childAttr has the kernel kill a child when the benchmark dies, so an
// interrupted run leaves no server behind.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
