package audit

import (
	"os"
	"os/exec"
	"syscall"
	"testing"
	"time"
)

// shortWriteDirEnv hands the child process of TestShortWriteLeavesNoHole
// its segment directory.
const shortWriteDirEnv = "HDFE_AUDIT_SHORT_WRITE_DIR"

// TestShortWriteLeavesNoHole pins recovery from a short write, as a full
// disk or a file-size limit makes one: the torn line is truncated away
// and the next event lands right after the last whole line, so the
// chain verifies end to end and a reopen truncates nothing. The limit
// is set in a child process of this test binary, so it never touches
// the process running the rest of the suite.
func TestShortWriteLeavesNoHole(t *testing.T) {
	if dir := os.Getenv(shortWriteDirEnv); dir != "" {
		shortWriteChild(t, dir)
		return
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestShortWriteLeavesNoHole$")
	cmd.Env = append(os.Environ(), shortWriteDirEnv+"="+dir)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child writer: %v\n%s", err, out)
	}

	// Events 1, 3, 4 and 5 were written; event 2 was cut short.
	res, err := VerifyDir(dir)
	if err != nil {
		t.Fatalf("VerifyDir after a short write: %v", err)
	}
	if res.Events != 4 || res.LastSeq != 4 {
		t.Fatalf("chain has %d events, last seq %d; want 4/4", res.Events, res.LastSeq)
	}
	before, err := os.Stat(segPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	l := openT(t, Config{Dir: dir})
	seq, head := l.Chain()
	l.Close()
	if seq != 4 || head != res.Head {
		t.Fatalf("reopen anchored at seq %d head %s, want 4 %s", seq, head, res.Head)
	}
	after, err := os.Stat(segPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() {
		t.Fatalf("reopen truncated the segment from %d to %d bytes", before.Size(), after.Size())
	}
}

// shortWriteChild writes one event, lowers RLIMIT_FSIZE to 10 bytes past
// it so the second event's write comes up short, restores the limit and
// writes three more.
func shortWriteChild(t *testing.T, dir string) {
	l := openT(t, Config{Dir: dir})
	waitUntil := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	l.Enqueue(scoredEvent(1))
	waitUntil("event 1", func() bool { seq, _ := l.Chain(); return seq == 1 })
	fi, err := os.Stat(segPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	low := lim
	low.Cur = uint64(fi.Size()) + 10
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &low); err != nil {
		t.Fatal(err)
	}
	l.Enqueue(scoredEvent(2))
	waitUntil("event 2 to drop", func() bool { return l.Dropped() == 1 })
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	for i := 3; i <= 5; i++ {
		l.Enqueue(scoredEvent(i))
	}
	l.Close()
	if seq, _ := l.Chain(); seq != 4 || l.Dropped() != 1 {
		t.Fatalf("writer at seq %d with %d dropped, want 4 and 1", seq, l.Dropped())
	}
}
