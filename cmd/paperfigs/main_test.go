package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs main with the arguments in PAPERFIGS_ARGS instead of
// the tests when that variable is set, so a test can check the
// command's output and exit status by running its own binary.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("PAPERFIGS_ARGS"); ok {
		os.Args = append([]string{"paperfigs"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// paperfigs runs main with args and returns its standard output and
// error and its exit status.
func paperfigs(t *testing.T, args string) (stdout, stderr []byte, exit int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "PAPERFIGS_ARGS="+args)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		exit = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("paperfigs %s: %v", args, err)
	}
	return out.Bytes(), errOut.Bytes(), exit
}

// An unknown -only item or a -reps below 0 exits 2 with a message
// naming the flag, before any simulation runs, instead of printing
// nothing or falling back to the default.
func TestFlagExitStatus(t *testing.T) {
	for _, c := range []struct {
		args string
		exit int
		flag string // the flag an exit-2 message names
	}{
		{"-only bogus", 2, "-only"}, {"-only fig3,bogus", 2, "-only"}, {"-only fig1,", 2, "-only"},
		{"-reps -1", 2, "-reps"}, {"-only table2,table1 -reps -3", 2, "-reps"}, {"-only table2 -reps 0", 0, ""},
	} {
		stdout, stderr, exit := paperfigs(t, c.args)
		if exit != c.exit {
			t.Errorf("paperfigs %s: exit status %d, want %d; stderr:\n%s", c.args, exit, c.exit, stderr)
			continue
		}
		if exit != 0 && (len(stdout) > 0 || !strings.HasPrefix(string(stderr), "paperfigs: ") || !strings.Contains(string(stderr), c.flag)) {
			t.Errorf("paperfigs %s: printed %q and %q, want only a message naming %s", c.args, stdout, stderr, c.flag)
		}
	}
}

// TestGolden holds the reproduction's fixed point: every table and
// figure paperfigs prints must match, byte for byte, the golden
// recorded before the change. A change that moves a figure on purpose
// regenerates the golden and so shows the move in its own diff:
//
//	go run ./cmd/paperfigs -quick > cmd/paperfigs/testdata/quick.golden
//	go run ./cmd/paperfigs > cmd/paperfigs/testdata/default.golden
//
// The default run measures energy through the ACPI battery, the paper's
// instrument; -quick reports exact energy on smaller workloads. The
// default run takes a few seconds and is skipped under -short and the
// race detector.
func TestGolden(t *testing.T) {
	for _, c := range []struct{ name, args string }{{"quick", "-quick"}, {"default", ""}} {
		t.Run(c.name, func(t *testing.T) {
			if c.args == "" && (testing.Short() || raceEnabled) {
				t.Skip("the default reproduction is slow; run without -short or -race")
			}
			want, err := os.ReadFile("testdata/" + c.name + ".golden")
			if err != nil {
				t.Fatal(err)
			}
			got, stderr, exit := paperfigs(t, c.args)
			if exit != 0 {
				t.Fatalf("paperfigs %s: exit status %d; stderr:\n%s", c.args, exit, stderr)
			}
			if !bytes.Equal(got, want) {
				gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
				for i := range min(len(gl), len(wl)) {
					if gl[i] != wl[i] {
						t.Fatalf("paperfigs %s differs from testdata/%s.golden at line %d:\n got %q\nwant %q", c.args, c.name, i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("paperfigs %s printed %d lines, testdata/%s.golden has %d", c.args, len(gl), c.name, len(wl))
			}
		})
	}
}
