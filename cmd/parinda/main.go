// Command parinda is the command-line face of the PARINDA physical
// designer — the three demonstration scenarios of the paper (§4) minus
// the GUI:
//
//	parinda generate    write the 30-query demonstration workload file
//	parinda interactive evaluate a manual what-if design (scenario 1)
//	parinda session     interactive design REPL over a live session
//	parinda serve       multi-tenant design-session HTTP service
//	parinda partitions  suggest table partitions via AutoPart (scenario 2)
//	parinda indexes     suggest indexes via ILP over INUM (scenario 3)
//	parinda recommend   joint index+partition recommender (budgeted anytime)
//	parinda ingest      stream a query log into a served session's window
//	parinda explain     show the optimizer plan for one query
//
// The session REPL is the paper's Figure-1 workflow: one design edit
// at a time, costs updating incrementally after each. Its commands:
//
//	create index <table>(<col>,<col>)  add a what-if index
//	drop index <table>(<col>,<col>)    remove a design index
//	partition <table>:<cols>|<cols>    set/replace a vertical partitioning
//	drop partition <table>             remove a partitioning (and its
//	                                   fragment indexes)
//	nestloop on|off                    toggle the what-if join method
//	costs                              per-query costs under the design
//	explain <n>                        plan of query n under the design
//	design                             show the current design
//	stats                              incremental-pricing counters
//	suggest [budget-mb]                greedy advisor, warm-started from
//	                                   the session's cost memo
//	ingest <select statement>          stream a query into the local
//	                                   workload window
//	window                             show the window (decayed weights,
//	                                   drift vs the tuned workload)
//	undo                               revert the last edit
//	redo                               re-apply the last undone edit
//	design -json                       dump the design as JSON
//	help, quit
//
// All subcommands plan against a synthetic SDSS-like catalog whose
// photoobj row count is set by -scale. Unknown subcommands and flag
// errors exit with status 2; runtime failures exit with status 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/costlab"
	"repro/internal/design"
	"repro/internal/inum"
	"repro/internal/optimizer"
	"repro/internal/recommend"
	"repro/internal/sql"
	"repro/internal/whatif"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run dispatches the subcommand and returns the process exit status:
// 0 on success, 1 on a runtime failure, 2 on a usage error (unknown
// subcommand or bad flags).
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	var err error
	switch cmd := args[0]; cmd {
	case "generate":
		err = cmdGenerate(args[1:], stdout, stderr)
	case "interactive":
		err = cmdInteractive(args[1:], stdout, stderr)
	case "session":
		err = cmdSession(args[1:], stdin, stdout, stderr)
	case "serve":
		err = cmdServe(args[1:], stdout, stderr)
	case "partitions":
		err = cmdPartitions(args[1:], stdout, stderr)
	case "indexes":
		err = cmdIndexes(args[1:], stdout, stderr)
	case "recommend":
		err = cmdRecommend(args[1:], stdout, stderr)
	case "ingest":
		err = cmdIngest(args[1:], stdin, stdout, stderr)
	case "explain":
		err = cmdExplain(args[1:], stdout, stderr)
	case "help", "-h", "--help":
		usage(stderr)
		return 0
	default:
		fmt.Fprintf(stderr, "parinda: unknown command %q\n\n", cmd)
		usage(stderr)
		return 2
	}
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		var ue *usageError
		if errors.As(err, &ue) {
			if !ue.reported {
				fmt.Fprintln(stderr, "parinda:", err)
			}
			return 2
		}
		fmt.Fprintln(stderr, "parinda:", err)
		return 1
	}
	return 0
}

// usageError marks bad invocations (flag-parse failures, malformed
// specs) so run exits 2 instead of 1. reported is set when the error
// text already reached stderr (the flag package prints its own parse
// failures), so run doesn't repeat it.
type usageError struct {
	err      error
	reported bool
}

func (e *usageError) Error() string { return e.err.Error() }
func (e *usageError) Unwrap() error { return e.err }

// parseFlags parses fs against args, converting parse failures into
// usage errors (flag already printed the message to stderr).
func parseFlags(fs *flag.FlagSet, args []string, stderr io.Writer) error {
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return flag.ErrHelp
		}
		return &usageError{err: err, reported: true}
	}
	return nil
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage: parinda <command> [flags]

commands:
  generate     write the 30-query SDSS demonstration workload to a file
  interactive  evaluate a manual what-if design over a workload
  session      interactive design REPL (incremental re-pricing)
  serve        multi-tenant design-session HTTP service
  partitions   suggest table partitions (AutoPart)
  indexes      suggest indexes (ILP over INUM; -greedy for the baseline)
  recommend    joint index+partition recommender (budgeted anytime search)
  ingest       stream a query log into a served session's workload window
  explain      print the plan of a single query

run 'parinda <command> -h' for the command's flags
`)
}

// benefitPct renders a per-query benefit percentage, guarded against
// degenerate zero base costs (no NaN/Inf in CLI output).
func benefitPct(base, new float64) float64 {
	if base <= 0 {
		return 0
	}
	return 100 * (1 - new/base)
}

func loadQueries(path string) ([]string, error) {
	if path == "" {
		return workload.Queries(), nil
	}
	return workload.LoadWorkloadFile(path)
}

func buildCatalog(scale int64) (*catalog.Catalog, error) {
	return workload.BuildCatalog(scale)
}

func cmdGenerate(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("generate", flag.ContinueOnError)
	out := fs.String("out", "workload.sql", "output workload file")
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}
	contents := workload.FormatWorkloadFile(workload.Queries())
	if err := os.WriteFile(*out, []byte(contents), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d queries to %s\n", len(workload.Queries()), *out)
	return nil
}

// parseIndexSpec parses "table(col1,col2)".
func parseIndexSpec(s string) (inum.IndexSpec, error) {
	open := strings.Index(s, "(")
	if open < 0 || !strings.HasSuffix(s, ")") {
		return inum.IndexSpec{}, fmt.Errorf("index spec %q: want table(col,col)", s)
	}
	table := strings.TrimSpace(s[:open])
	var cols []string
	for _, c := range strings.Split(s[open+1:len(s)-1], ",") {
		c = strings.TrimSpace(c)
		if c != "" {
			cols = append(cols, c)
		}
	}
	if table == "" || len(cols) == 0 {
		return inum.IndexSpec{}, fmt.Errorf("index spec %q: want table(col,col)", s)
	}
	return inum.IndexSpec{Table: table, Columns: cols}, nil
}

// parsePartitionDef parses "table:colA,colB|colC,colD".
func parsePartitionDef(s string) (design.Partition, error) {
	i := strings.Index(s, ":")
	if i < 0 {
		return design.Partition{}, fmt.Errorf("partition spec %q: want table:cols|cols", s)
	}
	def := design.Partition{Table: strings.TrimSpace(s[:i])}
	for _, group := range strings.Split(s[i+1:], "|") {
		var cols []string
		for _, c := range strings.Split(group, ",") {
			c = strings.TrimSpace(c)
			if c != "" {
				cols = append(cols, c)
			}
		}
		if len(cols) > 0 {
			def.Fragments = append(def.Fragments, cols)
		}
	}
	if def.Table == "" || len(def.Fragments) == 0 {
		return design.Partition{}, fmt.Errorf("partition spec %q: want table:cols|cols", s)
	}
	return def, nil
}

// parseDesign assembles a design from repeated -index and -partition
// flag values; a malformed spec is a usage error.
func parseDesign(indexes, partitions []string) (design.Design, error) {
	var d design.Design
	for _, s := range indexes {
		spec, err := parseIndexSpec(s)
		if err != nil {
			return d, &usageError{err: err}
		}
		d.Indexes = append(d.Indexes, spec)
	}
	for _, s := range partitions {
		def, err := parsePartitionDef(s)
		if err != nil {
			return d, &usageError{err: err}
		}
		d.Partitions = append(d.Partitions, def)
	}
	return d, nil
}

// printFragments lists a partitioning's generated fragment tables with
// their columns, one per line.
func printFragments(out io.Writer, p design.Partition) {
	for i, cols := range p.Fragments {
		fmt.Fprintf(out, "    %-24s (%s)\n", design.FragName(p.Table, i), strings.Join(cols, ", "))
	}
}

type stringList []string

func (s *stringList) String() string     { return strings.Join(*s, ";") }
func (s *stringList) Set(v string) error { *s = append(*s, v); return nil }

func cmdInteractive(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("interactive", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload file (default: built-in 30 queries)")
	scale := fs.Int64("scale", 1000000, "photoobj row count of the synthetic catalog")
	var indexes, partitions stringList
	fs.Var(&indexes, "index", "what-if index as table(col,col); repeatable")
	fs.Var(&partitions, "partition", "what-if partitioning as table:cols|cols; repeatable")
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
	d, err := parseDesign(indexes, partitions)
	if err != nil {
		return err
	}
	rep, err := core.New(cat).EvaluateDesign(queries, d)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "Interactive what-if evaluation (%d queries)\n", len(queries))
	fmt.Fprintf(stdout, "  average workload benefit: %5.1f%%   speedup: %.2fx\n",
		100*rep.AvgBenefit(), rep.Speedup())
	fmt.Fprintln(stdout, "  per-query benefits:")
	for i, pq := range rep.PerQuery {
		fmt.Fprintf(stdout, "   Q%-3d base %12.1f  new %12.1f  benefit %6.1f%%  uses %s\n",
			i+1, pq.BaseCost, pq.NewCost, benefitPct(pq.BaseCost, pq.NewCost),
			strings.Join(pq.IndexesUsed, " "))
	}
	return nil
}

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
	queries, err := loadQueries(*wl)
	if err != nil {
		return err
	}
	cat, err := buildCatalog(*scale)
	if err != nil {
		return err
	}
	res, err := core.New(cat).Recommend(context.Background(), queries, recommend.Options{
		Objects:           recommend.ObjectsPartitions,
		Strategy:          recommend.StrategyGreedy,
		ReplicationBudget: *replication,
		Workers:           *workers,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "Automatic partition suggestion (%d queries, %d iterations)\n",
		len(queries), res.Rounds)
	fmt.Fprintf(stdout, "  average workload benefit: %5.1f%%   speedup: %.2fx\n",
		100*res.AvgBenefit(), res.Speedup())
	for _, p := range res.Design.Partitions {
		fmt.Fprintf(stdout, "  %s:\n", p.Table)
		printFragments(stdout, p)
	}
	fmt.Fprintln(stdout, "  per-query benefits:")
	for i, pq := range res.PerQuery {
		fmt.Fprintf(stdout, "   Q%-3d base %12.1f  new %12.1f  benefit %6.1f%%\n",
			i+1, pq.BaseCost, pq.NewCost, benefitPct(pq.BaseCost, pq.NewCost))
	}
	if *saveRewritten != "" {
		if err := os.WriteFile(*saveRewritten, []byte(workload.FormatWorkloadFile(res.Rewritten)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  rewritten workload saved to %s\n", *saveRewritten)
	}
	return nil
}

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
	queries, err := loadQueries(*wl)
	if err != nil {
		return err
	}
	cat, err := buildCatalog(*scale)
	if err != nil {
		return err
	}
	opts := recommend.Options{
		Objects:          recommend.ObjectsIndexes,
		Strategy:         recommend.StrategyILP,
		StorageBudget:    *budget,
		SingleColumnOnly: *single,
		Backend:          *backend,
		Workers:          *workers,
	}
	if *greedy {
		opts.Strategy = recommend.StrategyGreedy
	}
	parsed, err := recommend.ParseWorkload(queries)
	if err != nil {
		return err
	}
	if *compress > 0 {
		before := len(parsed)
		parsed = recommend.CompressWorkload(cat, parsed, *compress)
		fmt.Fprintf(stdout, "workload compressed: %d queries -> %d templates\n", before, len(parsed))
	}
	res, err := recommend.Recommend(context.Background(), cat, parsed, opts)
	if err != nil {
		return err
	}
	method := "ILP"
	if *greedy {
		method = "greedy"
	}
	fmt.Fprintf(stdout, "Automatic index suggestion (%s, %d queries, %d candidates)\n",
		method, len(queries), res.Candidates)
	fmt.Fprintf(stdout, "  average workload benefit: %5.1f%%   speedup: %.2fx   size: %.1f MB\n",
		100*res.AvgBenefit(), res.Speedup(), float64(res.SizeBytes)/(1<<20))
	fmt.Fprintln(stdout, "  suggested indexes:")
	for _, stmt := range recommend.MaterializeStatements(res.Design.Indexes) {
		fmt.Fprintf(stdout, "    %s;\n", stmt)
	}
	fmt.Fprintln(stdout, "  per-query benefits:")
	for i, pq := range res.PerQuery {
		fmt.Fprintf(stdout, "   Q%-3d base %12.1f  new %12.1f  benefit %6.1f%%  uses %s\n",
			i+1, pq.BaseCost, pq.NewCost, benefitPct(pq.BaseCost, pq.NewCost),
			strings.Join(pq.IndexesUsed, " "))
	}
	return nil
}

func cmdExplain(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("explain", flag.ContinueOnError)
	query := fs.String("query", "", "SQL query to explain (required)")
	scale := fs.Int64("scale", 1000000, "photoobj row count of the synthetic catalog")
	var indexes stringList
	fs.Var(&indexes, "index", "what-if index as table(col,col); repeatable")
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}
	if *query == "" {
		return &usageError{err: fmt.Errorf("explain: -query is required")}
	}
	sel, err := sql.ParseSelect(*query)
	if err != nil {
		return err
	}
	d, err := parseDesign(indexes, nil)
	if err != nil {
		return err
	}
	cat, err := buildCatalog(*scale)
	if err != nil {
		return err
	}
	if _, err := design.Validate(cat, d); err != nil {
		return err
	}
	// A fresh what-if session names the indexes in flag order, exactly as
	// a design session applying d would.
	ws := whatif.NewSession(cat)
	if _, err := design.Install(ws, d, true); err != nil {
		return err
	}
	plan, err := ws.Plan(sel)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, optimizer.Explain(plan))
	return nil
}
