package main

import (
	"testing"
	"time"
)

func TestParsePidCPU(t *testing.T) {
	// A command name with spaces and a ')' inside, as the kernel writes it.
	stat := "4242 (hd serve) (x)) S 1 4242 4242 0 -1 4194560 2188 0 0 0 1234 567 0 0 20 0 9 0 123456 1234567890 4321 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0\n"
	got, err := parsePidCPU([]byte(stat))
	if err != nil {
		t.Fatal(err)
	}
	if want := (1234 + 567) * 10 * time.Millisecond; got != want {
		t.Errorf("cpu = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "4242 hdserve S 1", "4242 (hdserve) S 1 2 3", "4242 (hdserve) S 1 4242 4242 0 -1 4194560 2188 0 0 0 x 567 0"} {
		if _, err := parsePidCPU([]byte(bad)); err == nil {
			t.Errorf("parsePidCPU(%q) succeeded", bad)
		}
	}
}

func TestParseStatusKB(t *testing.T) {
	status := "Name:\thdserve\nVmPeak:\t 1300000 kB\nVmHWM:\t   41234 kB\nVmRSS:\t   40000 kB\nThreads:\t9\n"
	if got, err := parseStatusKB([]byte(status), "VmHWM"); err != nil || got != 41234 {
		t.Errorf("VmHWM = %d, %v; want 41234", got, err)
	}
	if _, err := parseStatusKB([]byte(status), "VmSwap"); err == nil {
		t.Error("missing key parsed")
	}
	if _, err := parseStatusKB([]byte(status), "Threads"); err == nil {
		t.Error("a line without kB parsed as kB")
	}
}

func TestParseSteal(t *testing.T) {
	stat := "cpu  10132153 290696 3084719 46828483 16683 0 25195 175628 0 0\ncpu0 1393280 32966 572056 13343292 6130 0 17875 87814 0 0\n"
	got, err := parseSteal([]byte(stat))
	if err != nil {
		t.Fatal(err)
	}
	if want := 175628 * 10 * time.Millisecond; got != want {
		t.Errorf("steal = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "cpu0 1 2 3 4 5 6 7 8\n", "cpu  1 2 3 4 5 6 7\n"} {
		if _, err := parseSteal([]byte(bad)); err == nil {
			t.Errorf("parseSteal(%q) succeeded", bad)
		}
	}
}

func TestParseCPUModel(t *testing.T) {
	info := "processor\t: 0\nvendor_id\t: GenuineIntel\nmodel name\t: Intel(R) Xeon(R) Processor\nprocessor\t: 1\nmodel name\t: other\n"
	if got := parseCPUModel([]byte(info)); got != "Intel(R) Xeon(R) Processor" {
		t.Errorf("model = %q", got)
	}
	if got := parseCPUModel([]byte("processor\t: 0\n")); got != "" {
		t.Errorf("model without a model line = %q, want empty", got)
	}
}
