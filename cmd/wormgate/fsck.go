package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"wormcontain/internal/durable"
	"wormcontain/internal/faultfs"
)

// runFsck verifies a durable state directory offline: every snapshot's
// checksum and payload (printing its format version, backend and host
// count), every WAL segment's framing, and the exact recovery
// accounting a `wormgate serve -state-dir` startup would perform —
// fsck and recovery share the same code path, so their numbers always
// agree. Like serve, it fails on a snapshot in the retired JSON format
// instead of reporting intact state as a fresh start.
func runFsck(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("wormgate fsck", flag.ContinueOnError)
	stateDir := fs.String("state-dir", "", "durable state directory to verify")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *stateDir == "" {
		return fmt.Errorf("fsck needs -state-dir")
	}
	if st, err := os.Stat(*stateDir); err != nil {
		return err
	} else if !st.IsDir() {
		return fmt.Errorf("%s is not a directory", *stateDir)
	}
	fsys, err := faultfs.NewOS(*stateDir)
	if err != nil {
		return err
	}
	rep, err := durable.Inspect(fsys)
	if err != nil {
		return err
	}
	rep.Write(out)
	return nil
}
