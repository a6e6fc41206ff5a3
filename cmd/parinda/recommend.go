package main

// The `parinda recommend` subcommand: the unified joint physical-
// design recommender. One budgeted search picks indexes and vertical
// partitions together against what-if costs, printing anytime progress
// as it goes; Ctrl-C (or the budget running out) stops the search and
// reports the best design found so far.

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/recommend"
)

func cmdRecommend(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("recommend", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload file (default: built-in 30 queries)")
	scale := fs.Int64("scale", 1000000, "photoobj row count of the synthetic catalog")
	objects := fs.String("objects", recommend.ObjectsJoint,
		"search space: indexes, partitions or joint")
	strategy := fs.String("strategy", "",
		"search strategy: greedy, ilp (indexes only) or anytime (default: greedy, or anytime when budgeted)")
	budgetMB := fs.Int64("budget-mb", 0,
		"shared storage budget in MB (index bytes + partition replication; 0 = unlimited)")
	maxEvals := fs.Int64("max-evals", 0, "anytime budget: max candidate-design evaluations (0 = unlimited)")
	timeout := fs.Duration("timeout", 0, "anytime budget: max search wall-clock time (0 = unlimited)")
	compress := fs.Int("compress", 0, "compress the workload to at most N template queries (0 = off)")
	maxCands := fs.Int("max-candidates", 0, "cap the index-candidate list (0 = no cap)")
	workers := fs.Int("workers", 0, "parallel cost-estimation workers (0 = GOMAXPROCS)")
	quiet := fs.Bool("quiet", false, "suppress per-round progress lines")
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}
	queries, err := loadQueries(*wl)
	if err != nil {
		return err
	}
	cat, err := buildCatalog(*scale)
	if err != nil {
		return err
	}
	parsed, err := recommend.ParseWorkload(queries)
	if err != nil {
		return err
	}
	opts := recommend.Options{
		Objects:         *objects,
		Strategy:        *strategy,
		StorageBudget:   *budgetMB << 20,
		CompressQueries: *compress,
		MaxCandidates:   *maxCands,
		Workers:         *workers,
		Budget: recommend.Budget{
			MaxEvaluations: *maxEvals,
			MaxDuration:    *timeout,
		},
	}
	if opts.Strategy == "" {
		if opts.Budget.MaxEvaluations > 0 || opts.Budget.MaxDuration > 0 {
			opts.Strategy = recommend.StrategyAnytime
		} else {
			opts.Strategy = recommend.StrategyGreedy
		}
	}
	if !*quiet {
		opts.Progress = func(p recommend.Progress) {
			fmt.Fprintf(stdout, "  round %-3d cost %14.1f  speedup %5.2fx  evals %-5d plancalls %-6d %s\n",
				p.Round, p.BestCost, p.BestSpeedup(), p.Evaluations, p.PlanCalls, p.LastMove)
		}
	}

	// Ctrl-C stops the search; the anytime strategy still returns the
	// best design found so far.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, err := recommend.Recommend(ctx, cat, parsed, opts)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "Joint design recommendation (%s/%s, %d queries, %d candidates, %d rounds, %d evaluations)\n",
		res.Objects, res.Strategy, len(parsed), res.Candidates, res.Rounds, res.Evaluations)
	if res.Truncated {
		fmt.Fprintln(stdout, "  budget exhausted: reporting the best design found so far")
	}
	fmt.Fprintf(stdout, "  average workload benefit: %5.1f%%   speedup: %.2fx   size: %.1f MB (indexes %.1f + replication %.1f)\n",
		100*res.AvgBenefit(), res.Speedup(),
		float64(res.SizeBytes+res.ReplicationBytes)/(1<<20),
		float64(res.SizeBytes)/(1<<20), float64(res.ReplicationBytes)/(1<<20))
	if len(res.Design.Indexes) > 0 {
		fmt.Fprintln(stdout, "  suggested indexes:")
		for _, stmt := range recommend.MaterializeStatements(res.Design.Indexes) {
			fmt.Fprintf(stdout, "    %s;\n", stmt)
		}
	}
	if len(res.Design.Partitions) > 0 {
		fmt.Fprintln(stdout, "  suggested partitions:")
		for _, p := range res.Design.Partitions {
			printFragments(stdout, p)
		}
	}
	if len(res.Design.Indexes) == 0 && len(res.Design.Partitions) == 0 {
		fmt.Fprintln(stdout, "  no beneficial design change found")
	}
	fmt.Fprintln(stdout, "  per-query benefits:")
	for i, pq := range res.PerQuery {
		fmt.Fprintf(stdout, "   Q%-3d base %12.1f  new %12.1f  benefit %6.1f%%  uses %s\n",
			i+1, pq.BaseCost, pq.NewCost, benefitPct(pq.BaseCost, pq.NewCost),
			strings.Join(pq.IndexesUsed, " "))
	}
	return nil
}
