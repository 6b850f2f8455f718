// Command crfsbench regenerates the tables and figures of the CRFS paper
// (Ouyang et al., ICPP 2011) from the deterministic simulation and prints
// paper-vs-measured comparisons.
//
// Usage:
//
//	crfsbench -list
//	crfsbench -run fig6
//	crfsbench -run all
//
// It measures nothing on the real library: the repository benchmark
// (go run ./bench) does that, and every check is a Go test.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"crfs/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list available experiment ids")
	run := flag.String("run", "all", "experiment id to run, or 'all'")
	flag.Parse()
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	ids := experiments.IDs()
	if *run != "all" {
		ids = []string{*run}
	}
	for _, id := range ids {
		start := time.Now()
		rep, err := experiments.Run(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(rep.Format())
		fmt.Printf("(regenerated in %.1fs)\n\n", time.Since(start).Seconds())
	}
}
