package main

// The idle inhibitor. On the reference box (a 2-vCPU microVM) a
// vCPU that has been idle runs at half speed for its first ~0.4 s of
// work, and a closed loop of short processes leaves each vCPU idle
// about half the time: the same query then measures 110–200 ms
// depending on where it lands. One spinner per CPU at the lowest
// scheduling priority keeps every vCPU out of idle without taking
// time from the queries (at nice 19 it gets about 1.5 % of a contended
// CPU), which cut the run-to-run spread of query_p50_s from 23 % to
// 8 %. It is the benchmark's equivalent of pinning the frequency
// governor, which a guest cannot do.

import (
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
)

// startSpinners starts one spinner per CPU and returns the function
// that stops them and waits until each has ended.
func startSpinners(self string) (stop func(), err error) {
	var cmds []*exec.Cmd
	var pipes []io.Closer
	stop = func() {
		for _, p := range pipes {
			p.Close() // the spinner exits when its stdin closes
		}
		for _, c := range cmds {
			_ = c.Wait() // exit status of a spinner carries nothing
		}
	}
	for i := 0; i < runtime.NumCPU(); i++ {
		cmd := exec.Command(self, "spin")
		stdin, err := cmd.StdinPipe()
		if err != nil {
			stop()
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			stop()
			return nil, err
		}
		cmds, pipes = append(cmds, cmd), append(pipes, stdin)
	}
	return stop, nil
}

// spinMain is `bench spin`: spin at nice 19 until stdin closes, which
// it does when the parent stops the spinner or dies.
func spinMain() {
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		os.Exit(0)
	}()
	runtime.LockOSThread()
	// On Linux the priority is per thread; who = 0 is this one. If the
	// call is refused the spinner would compete with the queries, so
	// it must not run.
	if err := syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19); err != nil {
		os.Exit(1)
	}
	for {
	}
}
