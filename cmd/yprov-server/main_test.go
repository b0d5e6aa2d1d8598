package main

import (
	"flag"
	"os"
	"os/exec"
	"regexp"
	"slices"
	"testing"
)

// serverFlags is every flag yprov-server accepts. A flag is added here
// only together with the caller that sets it.
var serverFlags = []string{
	"addr", "advertise-addr", "bundle-dir", "data-dir",
	"fsync", "max-inflight-writes", "max-lag", "pprof-addr",
	"read-cache-bytes", "read-cache-entries", "replicate-from",
	"request-timeout", "shards", "shed-latency-target", "snapshot-every",
	"token",
}

// runMainArg, as the first argument after "--", makes the test binary
// run the server's main with the arguments that follow it.
const runMainArg = "run-yprov-server-main"

// TestFlagSet re-runs the test binary as the server's main with -h and
// holds the flags its usage lists to serverFlags.
func TestFlagSet(t *testing.T) {
	if flag.Arg(0) == runMainArg {
		os.Args = append([]string{"yprov-server"}, flag.Args()[1:]...)
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		main()
		return
	}
	out, err := exec.Command(os.Args[0], "-test.run=^TestFlagSet$", "--", runMainArg, "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("yprov-server -h: %v\n%s", err, out)
	}
	var got []string
	for _, m := range regexp.MustCompile(`(?m)^  -([a-z0-9-]+)`).FindAllSubmatch(out, -1) {
		got = append(got, string(m[1]))
	}
	slices.Sort(got)
	if !slices.Equal(got, serverFlags) {
		t.Fatalf("yprov-server -h lists %d flags %v,\nwant the %d in serverFlags %v", len(got), got, len(serverFlags), serverFlags)
	}
}
