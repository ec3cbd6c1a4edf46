package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs main with the arguments in CALIBRATE_ARGS instead of
// the tests when that variable is set, so a test can check the
// command's exit status by running its own binary.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("CALIBRATE_ARGS"); ok {
		os.Args = append([]string{"calibrate"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// An unknown -only workload exits 2 with a message naming the flag,
// before any simulation runs, instead of printing nothing.
func TestFlagExitStatus(t *testing.T) {
	for _, c := range []struct {
		args string
		exit int
	}{
		{"-quick -only bogus", 2}, {"-only bogus", 2}, {"-quick -only swim", 0},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), "CALIBRATE_ARGS="+c.args)
		out, err := cmd.CombinedOutput()
		exit := 0
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			exit = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("calibrate %s: %v", c.args, err)
		}
		if exit != c.exit {
			t.Errorf("calibrate %s: exit status %d, want %d; output:\n%s", c.args, exit, c.exit, out)
			continue
		}
		if exit != 0 && (!strings.HasPrefix(string(out), "calibrate: ") || !strings.Contains(string(out), "-only")) {
			t.Errorf("calibrate %s: output %q does not name -only", c.args, out)
		}
		if exit == 0 && !strings.HasPrefix(string(out), "== swim / static") {
			t.Errorf("calibrate %s: output %q, want the swim crescendo", c.args, out)
		}
	}
}
