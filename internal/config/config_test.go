package config

import (
	"flag"
	"io"
	"testing"
)

// TestRegisterFlagsLeavesGroupBytesToWorkers: the shared flag set carries
// the knobs the head reads, and not -group-bytes, which only an agent reads
// (cmd/workernode declares it); a headnode given it fails flag parsing
// instead of ignoring it.
func TestRegisterFlagsLeavesGroupBytesToWorkers(t *testing.T) {
	fs := flag.NewFlagSet("headnode", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var tn Tuning
	tn.RegisterFlags(fs)
	if fs.Lookup("group-bytes") != nil {
		t.Error("RegisterFlags defines -group-bytes")
	}
	for _, name := range []string{"lease-ttl", "checkpoint-every", "speculate-after",
		"straggler-factor", "watchdog-min-samples"} {
		if fs.Lookup(name) == nil {
			t.Errorf("RegisterFlags does not define -%s", name)
		}
	}
	if err := fs.Parse([]string{"-group-bytes", "65536"}); err == nil {
		t.Error("a flag set from RegisterFlags accepts -group-bytes")
	}
}
