// Command crfsck is the offline container checker for CRFS backing
// directories: a parallel scrub (re-verify every frame of every frame
// container, pFSCK-style fan-out across workers) and an offline
// compactor (rewrite log-structured containers to their minimal
// equivalent, reclaiming the dead bytes rewrite-heavy checkpoint
// workloads accumulate).
//
// Usage:
//
//	crfsck DIR...             scrub (verify only)
//	crfsck -repair DIR...     scrub, truncating damaged containers to
//	                          their longest verified frame prefix
//	crfsck -compact DIR...    scrub, then compact every container with
//	                          anything to reclaim (also sweeps stray
//	                          compaction temps)
//
// Exit status follows fsck convention: 0 when every container is clean
// (and nothing needed compaction repair), 2 when defects were found,
// 1 on operational errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"crfs/internal/compact"
	"crfs/internal/osfs"
)

// scrubWorkers is the number of parallel frame verifiers.
const scrubWorkers = 4

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command; it returns the exit status documented above.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("crfsck", flag.ContinueOnError)
	fl.SetOutput(stderr)
	repair := fl.Bool("repair", false, "truncate damaged containers to their longest verified frame prefix")
	doCompact := fl.Bool("compact", false, "compact containers after scrubbing (rewrites reclaim dead frames and torn junk)")
	if err := fl.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 1
	}
	if fl.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: crfsck [-repair] [-compact] DIR...")
		return 1
	}
	defects, opErrs, err := check(stdout, fl.Args(), compact.ScrubOptions{Workers: scrubWorkers, Repair: *repair}, *doCompact)
	switch {
	case err != nil:
		fmt.Fprintln(stderr, "crfsck:", err)
		return 1
	case defects:
		return 2
	case opErrs:
		return 1
	}
	return 0
}

// check scrubs (and with doCompact compacts) every dir, printing one
// report each. defects is proven damage (corrupt frames, torn
// containers); opErrs is a file that could not be verified at all
// (backend open/read failure), never reported as corruption; the error
// is a directory that could not be walked, which stops the run.
func check(stdout io.Writer, dirs []string, o compact.ScrubOptions, doCompact bool) (defects, opErrs bool, _ error) {
	for _, dir := range dirs {
		fsys, err := osfs.New(dir)
		if err != nil {
			return defects, opErrs, err
		}
		rep, err := compact.Scrub(fsys, ".", o)
		if err != nil {
			return defects, opErrs, err
		}
		fmt.Fprintf(stdout, "%s: %s", dir, rep.Format())
		if rep.CorruptFrames > 0 || rep.TornContainers > 0 {
			defects = true
		}
		for _, p := range rep.Problems {
			if p.Err != "" {
				opErrs = true
			}
		}
		if doCompact {
			crep, err := compact.CompactDir(fsys, ".")
			if err != nil {
				return defects, opErrs, err
			}
			fmt.Fprintf(stdout, "%s: %s", dir, crep.Format())
			if len(crep.Problems) > 0 {
				opErrs = true
			}
		}
	}
	return defects, opErrs, nil
}
