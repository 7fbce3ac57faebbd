// Quickstart: build one server workload, run the baseline frontend and
// Confluence on an 8-core CMP, and print the headline comparison.
package main

import (
	"context"
	"fmt"
	"log"

	"confluence"
)

func main() {
	w, err := confluence.BuildWorkload("OLTP-DB2")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload %s: %d functions, %d KB of code\n",
		w.Prof.Name, len(w.Prog.Funcs()), w.Prog.FootprintBytes()>>10)

	// RunMany fans the two simulations out across CPUs and returns results
	// in input order.
	results, err := confluence.RunMany(context.Background(), 0, []confluence.Config{
		{Workload: w, Design: confluence.Base1K, Cores: 8},
		{Workload: w, Design: confluence.Confluence, Cores: 8},
	})
	if err != nil {
		log.Fatal(err)
	}
	base, conf := results[0], results[1]

	fmt.Printf("\n%-12s %8s %10s %10s %10s\n", "design", "IPC", "BTB MPKI", "L1-I MPKI", "rel. area")
	for _, r := range results {
		fmt.Printf("%-12s %8.3f %10.1f %10.1f %10.4f\n",
			r.Config.Design, r.Stats.IPC(), r.Stats.BTBMPKI(), r.Stats.L1IMPKI(), r.RelativeArea)
	}
	fmt.Printf("\nConfluence speedup over baseline: %.2fx\n",
		conf.Stats.IPC()/base.Stats.IPC())
}
