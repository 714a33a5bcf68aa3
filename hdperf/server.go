package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"sync"
	"syscall"
	"time"
)

// server is one running hdserve process. Its stdout and stderr go
// straight to a log file, so the benchmark never reads request logs
// while a window runs.
type server struct {
	cmd     *exec.Cmd
	log     *os.File
	logPath string
	base    string       // http://host:port, known once the server logs it
	ctl     *http.Client // health checks and /metrics scrapes
	done    chan struct{}
	waitErr error // set before done closes
	once    sync.Once
}

// servingAddr finds the bound address in hdserve's "serving" log line.
var servingAddr = regexp.MustCompile(`msg=serving .*\baddr=(\S+)`)

// startServer execs hdserve on artifact and returns once /healthz answers
// 200.
func startServer(ctx context.Context, bin, artifact string, flags []string, logPath string) (*server, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-model", artifact, "-addr", "127.0.0.1:0"}, flags...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting hdserve: %w", err)
	}
	s := &server{
		cmd:     cmd,
		log:     logf,
		logPath: logPath,
		ctl:     &http.Client{Timeout: 10 * time.Second},
		done:    make(chan struct{}),
	}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.done)
	}()
	if err := s.awaitReady(ctx); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// awaitReady polls the log for the bound address, then /healthz.
func (s *server) awaitReady(ctx context.Context) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		if s.base == "" {
			b, err := os.ReadFile(s.logPath)
			if err != nil {
				return err
			}
			if m := servingAddr.FindSubmatch(b); m != nil {
				s.base = "http://" + string(m[1])
			}
		}
		if s.base != "" {
			if resp, err := s.ctl.Get(s.base + "/healthz"); err == nil {
				_, _ = io.Copy(io.Discard, resp.Body) // drained only to reuse the connection
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return nil
				}
			}
		}
		if time.Now().After(deadline) {
			return errors.New("hdserve not ready after 60s")
		}
		select {
		case <-s.done:
			b, _ := os.ReadFile(s.logPath) // best effort, for the message
			return fmt.Errorf("hdserve exited during start-up (%v):\n%s", s.waitErr, b)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// stop asks hdserve to drain and exit, waits until it has, and closes its
// log. Calls after the first do nothing.
func (s *server) stop() {
	s.once.Do(func() {
		_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
		select {
		case <-s.done:
		case <-time.After(20 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.done
		}
		s.ctl.CloseIdleConnections()
		s.log.Close()
	})
}

// edge is what the benchmark reads at a window edge.
type edge struct {
	at    time.Time
	cpu   time.Duration // server utime+stime
	steal time.Duration // host steal over all CPUs
	prom  promSnap
}

// edgeAt waits until t, then reads the server's CPU time, the host's
// steal time and a /metrics scrape, in that order.
func (s *server) edgeAt(ctx context.Context, t time.Time) (edge, error) {
	select {
	case <-time.After(time.Until(t)):
	case <-ctx.Done():
		return edge{}, ctx.Err()
	}
	e := edge{at: time.Now()}
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return e, err
	}
	if e.cpu, err = parsePidCPU(b); err != nil {
		return e, err
	}
	if b, err = os.ReadFile("/proc/stat"); err != nil {
		return e, err
	}
	if e.steal, err = parseSteal(b); err != nil {
		return e, err
	}
	resp, err := s.ctl.Get(s.base + "/metrics")
	if err != nil {
		return e, err
	}
	defer resp.Body.Close()
	if b, err = io.ReadAll(resp.Body); err != nil {
		return e, fmt.Errorf("scraping /metrics: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return e, fmt.Errorf("scraping /metrics: status %d", resp.StatusCode)
	}
	e.prom, err = parseProm(b)
	return e, err
}

// peakRSS is the server's resident-set high-water mark (VmHWM), in kB.
func (s *server) peakRSS() (uint64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatusKB(b, "VmHWM")
}

// poster sends requests over one keep-alive connection.
type poster struct {
	c    *http.Client
	base string
}

func newPoster(base string) *poster {
	return &poster{base: base, c: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

// post sends body to path and decodes a 2xx JSON reply into into; any
// other status is an error.
func (p *poster) post(ctx context.Context, path string, body []byte, into any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("POST %s: %w", path, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	if err := json.Unmarshal(b, into); err != nil {
		return fmt.Errorf("POST %s: %w", path, err)
	}
	return nil
}
