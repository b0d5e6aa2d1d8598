package main

import (
	"flag"
	"net"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainArg, as the first argument after "--", makes the test binary
// run the CLI's main with the arguments that follow it.
const runMainArg = "run-yprov-main"

// runCLI runs the CLI with args against a server address nothing
// listens on, and returns what it printed and whether it failed.
func runCLI(t *testing.T, args ...string) (string, bool) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := "http://" + l.Addr().String()
	l.Close()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestArgumentErrors$", "--", runMainArg, "-server", closed}, args...)...)
	out, err := cmd.CombinedOutput()
	return string(out), err != nil
}

// TestArgumentErrors: a malformed argument is refused before any
// request, so against a closed port the error is the argument's, not a
// refused connection. The last case is the control: well-formed
// arguments do reach the network and fail there.
func TestArgumentErrors(t *testing.T) {
	if flag.Arg(0) == runMainArg {
		os.Args = append([]string{"yprov"}, flag.Args()[1:]...)
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		main()
		return
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"subgraph", "d", "ex:n", "2.5"}, `bad hops "2.5"`},
		{[]string{"subgraph", "d", "ex:n", "3x"}, `bad hops "3x"`},
		{[]string{"subgraph", "d", "ex:n", ""}, `bad hops ""`},
		{[]string{"lineage", "d", "ex:n", "ancestors", "3"}, "usage: lineage"},
		{[]string{"subgraph", "d", "ex:n", "2"}, "connection refused"},
	} {
		out, failed := runCLI(t, tc.args...)
		if !failed || !strings.Contains(out, tc.want) {
			t.Errorf("yprov %s: failed=%v, output %q, want it to say %q", strings.Join(tc.args, " "), failed, out, tc.want)
		}
	}
}
