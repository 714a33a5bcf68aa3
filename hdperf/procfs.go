package main

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// clockTick is the kernel's USER_HZ, the unit of CPU times in /proc. It
// is 100 on every architecture Linux exposes to user space.
const clockTick = 10 * time.Millisecond

// parsePidCPU returns utime+stime from the text of /proc/<pid>/stat: the
// CPU time of every thread of the process, in user and kernel mode.
func parsePidCPU(b []byte) (time.Duration, error) {
	s := string(b)
	// The command name (field 2) is parenthesized and may hold spaces, so
	// fields are counted from the last ')'.
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("procfs: stat has no command name")
	}
	f := strings.Fields(s[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("procfs: stat has %d fields after the command name, want at least 13", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("procfs: stat utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("procfs: stat stime: %w", err)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// parseStatusKB returns the value of a kB line of /proc/<pid>/status,
// such as "VmHWM:	   41234 kB".
func parseStatusKB(b []byte, key string) (uint64, error) {
	for _, line := range strings.Split(string(b), "\n") {
		name, rest, ok := strings.Cut(line, ":")
		if !ok || name != key {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("procfs: status %s line %q is not in kB", key, line)
		}
		v, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("procfs: status %s: %w", key, err)
		}
		return v, nil
	}
	return 0, fmt.Errorf("procfs: status has no %s line", key)
}

// parseSteal returns the host's steal time summed over all CPUs from the
// text of /proc/stat: time a vCPU was runnable but the hypervisor ran
// something else.
func parseSteal(b []byte) (time.Duration, error) {
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("procfs: /proc/stat starts with %q, want the aggregate cpu line with steal", line)
	}
	v, err := strconv.ParseUint(f[8], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("procfs: /proc/stat steal: %w", err)
	}
	return time.Duration(v) * clockTick, nil
}

// parseCPUModel returns the first "model name" of /proc/cpuinfo text, or
// "" when there is none (some architectures name it differently).
func parseCPUModel(b []byte) string {
	for _, line := range strings.Split(string(b), "\n") {
		name, value, ok := strings.Cut(line, ":")
		if ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return ""
}
