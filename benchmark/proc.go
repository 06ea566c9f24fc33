package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procUsage is the process's CPU time and peak memory so far.
type procUsage struct {
	user, sys time.Duration
	maxRSSKB  int64
}

func readUsage() procUsage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return procUsage{}
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return procUsage{user: tv(ru.Utime), sys: tv(ru.Stime), maxRSSKB: ru.Maxrss}
}

// hostCPU is the first line of /proc/stat: machine-wide jiffies, and how many
// of them the hypervisor gave to somebody else.
type hostCPU struct{ total, steal uint64 }

func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}
	}
	var h hostCPU
	for i, s := range f[1:] {
		v, _ := strconv.ParseUint(s, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest is already in user
			h.total += v
		}
		if i == 7 {
			h.steal = v
		}
	}
	return h
}
