// Command bench is the repository benchmark. It runs one simulator
// workload as a closed loop of identical operations and prints the
// end-to-end metrics a user of the simulator sees (host time per
// operation, set-up time, allocation, peak memory) or, with -trace 1,
// the per-layer metrics of a separate traced run. Every operation's
// simulated output is digested and checked, so a run also proves the
// simulator still computes the same results.
//
//	bash bench/run.sh -workload ft256 -seed 1          # one workload
//	bash bench/run.sh                                  # all, one child process each
//	bash bench/run.sh -workload ft256 -layers out/     # traced run, spans into out/
//	bash bench/run.sh compare a.json b.json -- c.json d.json
//
// See README.md for the workloads, the metrics and their bounds.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line settings of one run.
type options struct {
	seed    int64
	ops     int           // fixed op count; 0 with seconds > 0
	seconds time.Duration // time-bounded loop when positive
	traced  bool
	layers  string // where a traced run writes its spans
}

// run is main with its exit code returned: 0 on success, 1 when a run
// fails or an operation is wrong, 2 on bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	start := time.Now()
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run; empty runs every workload in its own process")
	seed := fs.Int64("seed", 1, "input seed; at seed 1 outputs are checked against the committed digests")
	seconds := fs.Float64("seconds", 0, "measure for this many seconds instead of a fixed op count")
	ops := fs.Int("ops", 0, "number of timed ops (default: the workload's own count)")
	traceFlag := fs.Int("trace", 0, "1 makes a traced run that reports per-layer metrics")
	layers := fs.String("layers", "", "make a traced run and write its spans into this directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "bench: "+format+"\n", a...)
		return 2
	}
	switch {
	case fs.NArg() > 0:
		return usage("unexpected argument %q", fs.Arg(0))
	case set["ops"] && *ops < 1:
		return usage("-ops must be at least 1, got %d", *ops)
	case *seconds < 0:
		return usage("-seconds must not be negative, got %v", *seconds)
	case *traceFlag != 0 && *traceFlag != 1:
		return usage("-trace must be 0 or 1, got %d", *traceFlag)
	}
	opt := options{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *traceFlag == 1 || *layers != "",
		layers:  *layers,
	}
	if set["ops"] {
		opt.ops = *ops
		opt.seconds = 0
	}
	if opt.traced {
		if opt.layers == "" {
			opt.layers = filepath.Join(".bench_build", "layers")
		}
		if err := checkWritableDir(opt.layers); err != nil {
			return usage("-layers: %v", err)
		}
	}
	if *name == "" {
		return runAll(args, stdout, stderr)
	}
	sp, ok := specByName(*name)
	if !ok {
		return usage("unknown -workload %q (have %s)", *name, specNames())
	}
	if opt.ops == 0 && opt.seconds == 0 {
		opt.ops = sp.ops
	}

	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	rep, err := runSpec(sp, opt, start)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", sp.name, err)
		return 1
	}
	if err := emit(stdout, rep); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := emit(stdout, rep.result()); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if rep.Failed > 0 {
		return 1
	}
	return 0
}

// emit writes v as one line of JSON.
func emit(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

// checkWritableDir creates dir if needed and proves a file can be
// written in it, so a bad -layers fails before any measuring.
func checkWritableDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, ".probe-*")
	if err != nil {
		return err
	}
	name := f.Name()
	if err := f.Close(); err != nil {
		return errors.Join(err, os.Remove(name))
	}
	return os.Remove(name)
}

// runAll runs every workload in its own child process, one after the
// other, with the same flags, and copies each child's output lines.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, sp := range specs {
		var out bytes.Buffer
		// -workload goes last so it overrides an explicit empty one.
		childArgs := append(append([]string{}, args...), "-workload", sp.name)
		cmd := exec.Command(self, childArgs...)
		cmd.Stdout = &out
		cmd.Stderr = stderr
		err := cmd.Run()
		if _, werr := stdout.Write(out.Bytes()); werr != nil {
			fmt.Fprintln(stderr, "bench:", werr)
			return 1
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", sp.name, err)
			code = 1
		}
	}
	return code
}
