// Command hdaudit verifies and replays the hash-chained decision audit
// trail written by hdserve (see internal/obs/audit).
//
// Usage:
//
//	hdaudit verify -dir audit/
//	hdaudit replay -dir audit/ -model dep.bin [-all]
//
// verify walks the chain across every segment — per-line hashes,
// prev-hash linkage, contiguous sequence numbers — and fails on the
// first break, printing the segment and line it happened on. A clean
// walk prints the chain head and the event census.
//
// replay re-scores every audited decision against a deployment artifact
// and asserts Float64bits-identical scores. Events scored by a
// different artifact (their model_sha256 does not match -model's bytes)
// are skipped and counted, so replay stays well-defined across model
// hot-swaps: each decision is verified against exactly the model that
// made it. -all replays every scored event regardless of attribution —
// useful for asking "would the new model have decided differently?",
// where divergences are the interesting output, not a failure of the
// trail. Any divergence under the default attribution is a hard error:
// either the artifact is not the one that served, or the log was
// altered in a way the hash chain cannot see (it protects integrity of
// what was written, not agreement with a model).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"hdfe/internal/core"
	"hdfe/internal/obs/audit"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "hdaudit: %v\n", err)
		os.Exit(1)
	}
}

// run is the testable main.
func run(args []string, stdout, stderr io.Writer) error {
	if len(args) < 1 {
		return errors.New("usage: hdaudit <verify|replay> [flags]")
	}
	switch args[0] {
	case "verify":
		return runVerify(args[1:], stdout, stderr)
	case "replay":
		return runReplay(args[1:], stdout, stderr)
	default:
		return fmt.Errorf("unknown subcommand %q (want verify or replay)", args[0])
	}
}

func runVerify(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hdaudit verify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "", "audit log directory (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return errors.New("verify: -dir is required")
	}
	res, err := audit.VerifyDir(*dir)
	if err != nil {
		return fmt.Errorf("chain verification FAILED after %d good events: %w", res.Events, err)
	}
	fmt.Fprintf(stdout, "audit chain OK: %d events across %d segments, head %s\n",
		res.Events, res.Segments, shortHash(res.Head))
	fmt.Fprintf(stdout, "  outcomes: %s\n", census(res.Outcomes))
	return nil
}

func runReplay(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("hdaudit replay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", "", "audit log directory (required)")
	model := fs.String("model", "", "deployment artifact to replay against (required)")
	all := fs.Bool("all", false, "replay every scored event, not just those attributed to -model's sha256")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" || *model == "" {
		return errors.New("replay: -dir and -model are required")
	}
	dep, sha, err := core.ReadFile(*model)
	if err != nil {
		return err
	}
	want := sha
	if *all {
		want = ""
	}
	res, err := audit.Replay(*dir, dep, want)
	if err != nil {
		return fmt.Errorf("chain verification FAILED during replay: %w", err)
	}
	fmt.Fprintf(stdout, "replayed %d scored events against %s (sha256 %s)\n",
		res.Replayed, *model, shortHash(sha))
	fmt.Fprintf(stdout, "  matched %d, diverged %d; skipped: other model %d, no inputs %d, digest mismatch %d\n",
		res.Matched, len(res.Divergences), res.SkippedModel, res.SkippedInput, res.DigestMismatch)
	if res.DigestMismatch > 0 {
		return fmt.Errorf("%d events carry inputs that fail their own digest", res.DigestMismatch)
	}
	if n := len(res.Divergences); n > 0 {
		for i, d := range res.Divergences {
			if i == 10 {
				fmt.Fprintf(stdout, "  ... and %d more\n", n-10)
				break
			}
			fmt.Fprintf(stdout, "  seq %d (request %s, model v%d sha %s): audited %.17g (bits %#x), replayed %.17g (bits %#x)\n",
				d.Seq, d.RequestID, d.ModelVersion, shortHash(d.ModelSHA256), d.Want, d.WantBits, d.Got, d.GotBits)
		}
		if *all {
			fmt.Fprintf(stdout, "  (divergences include events attributed to other models; expected under -all)\n")
			return nil
		}
		return fmt.Errorf("%d of %d replayed scores diverged", n, res.Replayed)
	}
	return nil
}

// census renders an outcome→count map deterministically.
func census(m map[string]int) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) == 0 {
		return "(none)"
	}
	out := ""
	for i, k := range keys {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%d", k, m[k])
	}
	return out
}

func shortHash(h string) string {
	if h == "" {
		return "(genesis)"
	}
	if len(h) > 12 {
		return h[:12]
	}
	return h
}
