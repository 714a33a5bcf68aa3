package main

import (
	"bytes"
	"context"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRunOverloadFlags drives the overload-protection flags through the
// real binary entrypoint: -max-inflight 1 plus a -chaos-spec score stall
// forces concurrent clients to split into admitted requests and 429s
// carrying Retry-After, with the sheds visible in /metrics.
func TestRunOverloadFlags(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stdout := &syncBuffer{}
	var errOut bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-demo", "-dim", "128", "-addr", "127.0.0.1:0",
			"-max-inflight", "1", "-retry-after", "2s",
			"-chaos-spec", "score:p=1,delay=250ms", "-chaos-seed", "7",
			"-timeout", "5s"}, stdout, &errOut)
	}()

	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if m := addrRe.FindStringSubmatch(stdout.String()); m != nil {
			addr = m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("server never reported its address; stdout %q stderr %q", stdout.String(), errOut.String())
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if !strings.Contains(stdout.String(), "chaos injection enabled") {
		t.Fatalf("-chaos-spec did not log the chaos warning: %q", stdout.String())
	}

	// Four concurrent clients against a 1-record budget held ~250ms by
	// the injected stall: at least one admitted (200), at least one shed
	// (429 with a whole-second Retry-After >= 1).
	const clients = 4
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		ok, shed int
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post("http://"+addr+"/v1/score", "application/json",
				strings.NewReader(`{"features":[2,120,70,25,100,30.5,0.4,40]}`))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			mu.Lock()
			defer mu.Unlock()
			switch resp.StatusCode {
			case http.StatusOK:
				ok++
			case http.StatusTooManyRequests:
				shed++
				if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
					t.Errorf("429 Retry-After %q, want integer seconds >= 1", resp.Header.Get("Retry-After"))
				}
			default:
				t.Errorf("status %d under overload, want 200 or 429", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	if ok == 0 || shed == 0 {
		t.Fatalf("%d accepted / %d shed of %d clients; want both nonzero", ok, shed, clients)
	}

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	metrics := body.String()
	found := false
	for _, line := range strings.Split(metrics, "\n") {
		if rest, ok := strings.CutPrefix(line, `hdfe_shed_total{reason="queue_full"} `); ok {
			n, err := strconv.Atoi(rest)
			if err != nil || n < shed {
				t.Errorf("hdfe_shed_total{queue_full} = %q, clients saw %d rejections", rest, shed)
			}
			found = true
		}
	}
	if !found {
		t.Error("hdfe_shed_total{reason=\"queue_full\"} missing from /metrics")
	}
	if !strings.Contains(metrics, "hdserve_inflight_records") {
		t.Error("hdserve_inflight_records missing from /metrics")
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not exit after context cancellation")
	}
}

// TestRunChaosSpecErrors pins the flag contract: a malformed -chaos-spec
// fails startup with a parse error instead of silently serving without
// injection.
func TestRunChaosSpecErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run(context.Background(), []string{"-demo", "-dim", "128",
		"-chaos-spec", "bogus:p=1"}, &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "unknown injection point") {
		t.Fatalf("bad -chaos-spec: err %v, want unknown-injection-point parse error", err)
	}
}
