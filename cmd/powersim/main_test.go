package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs main with the arguments in POWERSIM_ARGS instead of the
// tests when that variable is set, so a test can check the command's
// exit status by running its own binary.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("POWERSIM_ARGS"); ok {
		os.Args = append([]string{"powersim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// A scale or a repetition count below 1, a negative -j and an -mhz
// that names no operating point exit 2 with a message naming the flag,
// before any simulation runs, as an unknown workload does.
func TestFlagExitStatus(t *testing.T) {
	for _, c := range []struct {
		args string
		exit int
	}{
		{"-scale 0", 2}, {"-scale -2", 2}, {"-reps 0", 2}, {"-reps -1", 2},
		{"-workload nope", 2}, {"-scale 2 -reps 3 -list", 0},
		{"-mhz 123", 2}, {"-mhz 0", 2}, {"-mhz -800", 2}, {"-j -1", 2}, {"-mhz 800 -list", 0},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), "POWERSIM_ARGS="+c.args)
		out, err := cmd.CombinedOutput()
		exit := 0
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			exit = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("powersim %s: %v", c.args, err)
		}
		if exit != c.exit {
			t.Errorf("powersim %s: exit status %d, want %d; output:\n%s", c.args, exit, c.exit, out)
			continue
		}
		flagName := strings.TrimPrefix(strings.Fields(c.args)[0], "-")
		if exit != 0 && (!strings.HasPrefix(string(out), "powersim: ") || !strings.Contains(string(out), flagName)) {
			t.Errorf("powersim %s: output %q does not name %s", c.args, out, flagName)
		}
	}
}
