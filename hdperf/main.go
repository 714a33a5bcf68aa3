// Command hdperf is the end-to-end benchmark for hdserve and the HDC
// encode path.
//
// One run fits a deployment on a seeded synthetic training cohort
// (core.BuildDeployment, then Save), starts a real hdserve process on the
// artifact with default flags, and drives one workload over HTTP for a
// fixed window. Every score is checked against in-process scoring of the
// same artifact (core.Deployment.ScoreBatch) under math.Float64bits. The
// window is read from outside the server: /metrics, /proc/<pid>/stat and
// /proc/<pid>/status at its edges, and /proc/stat for host steal. Nothing
// is instrumented inside the program.
//
// With -trace 0 the run reports the end-to-end metrics. With -trace 1 it
// keeps spans in memory around every call it makes, also times the public
// hv, encode and core functions on the run's own rows, writes the spans to
// <workdir>/trace/, and reports the per-layer metrics. The last line on
// stdout is the JSON result; the line before it records the machine.
//
// run.sh in this directory builds hdserve and hdperf from the checkout and
// runs one workload:
//
//	bash hdperf/run.sh --workload pima-cohort --seed 1 --seconds 35 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is the testable main. It returns the exit code: 0 after printing a
// result, 1 when the run could not produce one, 2 on bad usage.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hdperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = fs.Int("seconds", 35, "length of the measured window in seconds")
		trace   = fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
		bin     = fs.String("hdserve", "", "hdserve binary to benchmark")
		workdir = fs.String("workdir", ".bench_build", "directory for artifacts, server logs and span files")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	switch {
	case !ok:
		fmt.Fprintf(stderr, "hdperf: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	case *bin == "":
		fmt.Fprintln(stderr, "hdperf: -hdserve is required")
		return 2
	case *seconds < 1 || (*trace != 0 && *trace != 1):
		fmt.Fprintln(stderr, "hdperf: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	res, mach, err := execute(ctx, config{
		w:       w,
		seed:    *seed,
		window:  time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		bin:     *bin,
		workdir: *workdir,
	})
	if err != nil {
		fmt.Fprintf(stderr, "hdperf: %v\n", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(struct {
		Machine machine `json:"machine"`
	}{mach}); err != nil {
		fmt.Fprintf(stderr, "hdperf: %v\n", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(stderr, "hdperf: %v\n", err)
		return 1
	}
	return 0
}
