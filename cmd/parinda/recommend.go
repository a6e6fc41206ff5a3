package main

// The `parinda recommend` subcommand and its two presets. recommend is
// the unified physical-design recommender: one budgeted search picks
// indexes and vertical partitions together against what-if costs,
// printing anytime progress as it goes; Ctrl-C (or the budget running
// out) stops the search and reports the best design found so far.
// `indexes` (ILP over INUM, scenario 3) and `partitions` (AutoPart,
// scenario 2) are the same pipeline with fixed Objects/Strategy and
// the flags the paper's two advisors speak; all three print through
// printRecommendation.

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/costlab"
	"repro/internal/design"
	"repro/internal/recommend"
	"repro/internal/workload"
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
	_, err := runRecommend(ctx, stdout, *wl, *scale, opts)
	return err
}

// cmdIndexes is the index advisor preset: ILP over INUM, or the greedy
// baseline with -greedy, under a storage budget in bytes.
func cmdIndexes(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("indexes", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload file (default: built-in 30 queries)")
	scale := fs.Int64("scale", 1000000, "photoobj row count of the synthetic catalog")
	budget := fs.Int64("budget", 0, "total index size budget in bytes (0 = unlimited)")
	greedy := fs.Bool("greedy", false, "use the greedy baseline instead of the ILP")
	single := fs.Bool("single-column", false, "restrict candidates to single-column indexes")
	compress := fs.Int("compress", 0, "compress the workload to at most N template queries (0 = off)")
	backend := fs.String("backend", costlab.BackendINUM,
		"candidate pricing backend: inum (cache-based) or full (full optimizer)")
	workers := fs.Int("workers", 0, "parallel cost-estimation workers (0 = GOMAXPROCS)")
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}
	opts := recommend.Options{
		Objects:          recommend.ObjectsIndexes,
		Strategy:         recommend.StrategyILP,
		StorageBudget:    *budget,
		SingleColumnOnly: *single,
		CompressQueries:  *compress,
		Backend:          *backend,
		Workers:          *workers,
	}
	if *greedy {
		opts.Strategy = recommend.StrategyGreedy
	}
	_, err := runRecommend(context.Background(), stdout, *wl, *scale, opts)
	return err
}

// cmdPartitions is the AutoPart preset: greedy partition-only search
// under a replication budget in bytes.
func cmdPartitions(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("partitions", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload file (default: built-in 30 queries)")
	scale := fs.Int64("scale", 1000000, "photoobj row count of the synthetic catalog")
	replication := fs.Int64("replication", 1<<30, "replication space budget in bytes")
	saveRewritten := fs.String("save-rewritten", "", "write the rewritten workload to this file")
	workers := fs.Int("workers", 0, "parallel cost-estimation workers (0 = GOMAXPROCS)")
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}
	res, err := runRecommend(context.Background(), stdout, *wl, *scale, recommend.Options{
		Objects:           recommend.ObjectsPartitions,
		Strategy:          recommend.StrategyGreedy,
		ReplicationBudget: *replication,
		Workers:           *workers,
	})
	if err != nil || *saveRewritten == "" {
		return err
	}
	if err := os.WriteFile(*saveRewritten, []byte(workload.FormatWorkloadFile(res.Rewritten)), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "  rewritten workload saved to %s\n", *saveRewritten)
	return nil
}

// runRecommend loads the workload and the catalog, runs one
// recommendation and prints it.
func runRecommend(ctx context.Context, stdout io.Writer, wl string, scale int64, opts recommend.Options) (*recommend.Result, error) {
	queries, err := loadQueries(wl)
	if err != nil {
		return nil, err
	}
	cat, err := buildCatalog(scale)
	if err != nil {
		return nil, err
	}
	parsed, err := recommend.ParseWorkload(queries)
	if err != nil {
		return nil, err
	}
	res, err := recommend.Recommend(ctx, cat, parsed, opts)
	if err != nil {
		return nil, err
	}
	printRecommendation(stdout, res, len(parsed))
	return res, nil
}

// printRecommendation is the one result printer: summary, design
// (partitions grouped under one line per table) and per-query costs.
func printRecommendation(out io.Writer, res *recommend.Result, queries int) {
	fmt.Fprintf(out, "Joint design recommendation (%s/%s, %d queries, %d candidates, %d rounds, %d evaluations)\n",
		res.Objects, res.Strategy, queries, res.Candidates, res.Rounds, res.Evaluations)
	if res.Truncated {
		fmt.Fprintln(out, "  budget exhausted: reporting the best design found so far")
	}
	fmt.Fprintf(out, "  average workload benefit: %5.1f%%   speedup: %.2fx   size: %.1f MB (indexes %.1f + replication %.1f)\n",
		100*res.AvgBenefit(), res.Speedup(),
		float64(res.SizeBytes+res.ReplicationBytes)/(1<<20),
		float64(res.SizeBytes)/(1<<20), float64(res.ReplicationBytes)/(1<<20))
	if len(res.Design.Indexes) > 0 {
		fmt.Fprintln(out, "  suggested indexes:")
		for _, stmt := range recommend.MaterializeStatements(res.Design.Indexes) {
			fmt.Fprintf(out, "    %s;\n", stmt)
		}
	}
	if len(res.Design.Partitions) > 0 {
		fmt.Fprintln(out, "  suggested partitions:")
		for _, p := range res.Design.Partitions {
			fmt.Fprintf(out, "  %s:\n", p.Table)
			for i, cols := range p.Fragments {
				fmt.Fprintf(out, "    %-24s (%s)\n", design.FragName(p.Table, i), strings.Join(cols, ", "))
			}
		}
	}
	if len(res.Design.Indexes) == 0 && len(res.Design.Partitions) == 0 {
		fmt.Fprintln(out, "  no beneficial design change found")
	}
	printPerQuery(out, res.PerQuery)
}
