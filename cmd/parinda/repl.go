package main

// The `parinda session` subcommand: an interactive REPL over the
// incremental design-session engine — the paper's Figure-1 workflow.
// Each edit re-prices only the queries it can affect; everything else
// is served from the session memo, and the per-edit summary line
// shows exactly how much work was saved.

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/design"
	"repro/internal/ingest"
	"repro/internal/recommend"
	"repro/internal/session"
)

func cmdSession(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("session", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload file (default: built-in 30 queries)")
	scale := fs.Int64("scale", 1000000, "photoobj row count of the synthetic catalog")
	workers := fs.Int("workers", 0, "parallel cost-estimation workers for suggest (0 = GOMAXPROCS)")
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
	// A single-user REPL still runs over a SharedMemo: undo/redo and
	// design churn revisit states it keeps, and the stats command can
	// show the same memo counters the serve layer exports.
	shared := session.NewSharedMemo()
	s, err := session.New(cat, queries, session.Options{Workers: *workers, Shared: shared})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "PARINDA design session: %d queries, scale %d. Type 'help' for commands.\n",
		len(queries), *scale)
	printSummary(stdout, s.Report())
	return runREPL(&replState{s: s, shared: shared, win: ingest.NewWindow(ingest.Options{})}, stdin, stdout)
}

// replState is the REPL's mutable state: the design session plus a
// local streaming-workload window (the single-user flavour of the
// serve layer's per-session window).
type replState struct {
	s      *session.DesignSession
	shared *session.SharedMemo // may be nil (tests build bare states)
	win    *ingest.Window
}

// runREPL drives the session until EOF or quit. Command errors are
// reported and the loop continues; only I/O failures abort.
func runREPL(st *replState, in io.Reader, out io.Writer) error {
	sc := bufio.NewScanner(in)
	for {
		fmt.Fprint(out, "parinda> ")
		if !sc.Scan() {
			fmt.Fprintln(out)
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		quit, err := execREPLLine(st, line, out)
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			continue
		}
		if quit {
			return nil
		}
	}
}

// execREPLLine executes one REPL command; quit reports an exit
// request.
func execREPLLine(st *replState, line string, out io.Writer) (quit bool, err error) {
	s := st.s
	fields := strings.Fields(line)
	cmd := strings.ToLower(fields[0])
	rest := strings.TrimSpace(line[len(fields[0]):])

	switch cmd {
	case "quit", "exit", "q":
		return true, nil
	case "help", "?":
		replHelp(out)
		return false, nil
	case "create": // create index t(c1,c2)
		sub, arg := splitKeyword(rest)
		if sub != "index" || arg == "" {
			return false, fmt.Errorf("usage: create index <table>(<col>,<col>)")
		}
		spec, err := parseIndexSpec(arg)
		if err != nil {
			return false, err
		}
		rep, err := s.AddIndex(spec)
		if err != nil {
			return false, err
		}
		printSummary(out, rep)
		return false, nil
	case "drop": // drop index t(c1,c2) | drop partition t
		sub, arg := splitKeyword(rest)
		switch {
		case sub == "index" && arg != "":
			spec, err := parseIndexSpec(arg)
			if err != nil {
				return false, err
			}
			rep, err := s.DropIndex(spec)
			if err != nil {
				return false, err
			}
			printSummary(out, rep)
		case sub == "partition" && arg != "":
			rep, err := s.DropPartition(arg)
			if err != nil {
				return false, err
			}
			printSummary(out, rep)
		default:
			return false, fmt.Errorf("usage: drop index <table>(<cols>) | drop partition <table>")
		}
		return false, nil
	case "partition", "repartition": // partition t:a,b|c,d
		if rest == "" {
			return false, fmt.Errorf("usage: partition <table>:<cols>|<cols>")
		}
		def, err := parsePartitionDef(rest)
		if err != nil {
			return false, err
		}
		rep, err := s.AddPartition(def)
		if err != nil {
			return false, err
		}
		printSummary(out, rep)
		return false, nil
	case "nestloop": // nestloop on|off
		var enabled bool
		switch strings.ToLower(rest) {
		case "on":
			enabled = true
		case "off":
			enabled = false
		default:
			return false, fmt.Errorf("usage: nestloop on|off")
		}
		rep, err := s.SetNestLoop(enabled)
		if err != nil {
			return false, err
		}
		printSummary(out, rep)
		return false, nil
	case "undo":
		rep, err := s.Undo()
		if err != nil {
			return false, err
		}
		printSummary(out, rep)
		return false, nil
	case "redo":
		rep, err := s.Redo()
		if err != nil {
			return false, err
		}
		printSummary(out, rep)
		return false, nil
	case "costs":
		printCosts(out, s.Report())
		return false, nil
	case "explain": // explain <n>
		n, err := strconv.Atoi(rest)
		if err != nil {
			return false, fmt.Errorf("usage: explain <query number>")
		}
		text, err := s.Explain(n - 1)
		if err != nil {
			return false, err
		}
		fmt.Fprint(out, text)
		return false, nil
	case "design": // design [-json]
		if strings.EqualFold(rest, "-json") {
			blob, err := json.MarshalIndent(s.Design(), "", "  ")
			if err != nil {
				return false, err
			}
			fmt.Fprintf(out, "%s\n", blob)
			return false, nil
		}
		printDesign(out, s)
		return false, nil
	case "stats":
		sst := s.Stats()
		fmt.Fprintf(out, "memo: %d hits / %d misses (%d entries)   optimizer calls: %d\n",
			sst.MemoHits, sst.MemoMisses, sst.MemoEntries, sst.PlanCalls)
		fmt.Fprintf(out, "last edit: %d queries invalidated, %d re-planned\n",
			sst.Invalidated, sst.Repriced)
		if st.shared != nil {
			sh := st.shared.Stats()
			fmt.Fprintf(out, "shared: %d hits / %d misses (%d states, %d evictions)\n",
				sh.Hits, sh.Misses, sh.States, sh.Evictions)
			fmt.Fprintf(out, "in-flight: %d waits, %d coalesced plan batches, %d handovers, %d dup stores\n",
				sh.InflightWaits, sh.CoalescedPlanCalls, sh.Handovers, sh.DupStores)
		}
		return false, nil
	case "suggest": // suggest [budget-mb] [-joint] [-budget evals] [-time ms]
		return false, replSuggest(s, rest, out)
	case "queries":
		for i, q := range s.Queries() {
			fmt.Fprintf(out, "Q%-3d %s\n", i+1, q.SQL)
		}
		return false, nil
	case "ingest": // ingest <sql>
		if rest == "" {
			return false, fmt.Errorf("usage: ingest <select statement>")
		}
		if err := st.win.Ingest(rest); err != nil {
			return false, err
		}
		ws := st.win.Stats()
		fmt.Fprintf(out, "ingested (window: %d distinct, weight %.2f, drift %.2f vs tuned workload)\n",
			ws.Distinct, ws.TotalWeight, ingest.Distance(st.win.Queries(), s.Queries()))
		return false, nil
	case "window":
		printWindow(out, st)
		return false, nil
	}
	return false, fmt.Errorf("unknown command %q (try 'help')", cmd)
}

// printWindow renders the streaming window: entries heaviest-first
// with decayed weights, then the counters and the drift against the
// session's tuned workload.
func printWindow(out io.Writer, st *replState) {
	snap, queries := st.win.Workload()
	if len(snap) == 0 {
		fmt.Fprintln(out, "window is empty (use: ingest <select statement>)")
		return
	}
	for i, e := range snap {
		fmt.Fprintf(out, "W%-3d weight %8.3f  count %-5d %s\n", i+1, e.Weight, e.Count, e.SQL)
	}
	ws := st.win.Stats()
	fmt.Fprintf(out, "window: %d distinct, %d submissions, %d rejected, %d evicted, weight %.2f\n",
		ws.Distinct, ws.Submissions, ws.Rejected, ws.Evicted, ws.TotalWeight)
	fmt.Fprintf(out, "drift vs tuned workload: %.2f\n",
		ingest.Distance(queries, st.s.Queries()))
}

// replSuggest runs the advisor from the REPL, warm-started from the
// session memo. Without flags it is the classic greedy index advisor;
// -joint searches indexes and partitions together, and -budget/-time
// bound the search (anytime: the best design found so far is
// returned).
//
//	suggest [budget-mb] [-joint] [-budget <max-evals>] [-time <ms>]
func replSuggest(s *session.DesignSession, rest string, out io.Writer) error {
	usage := fmt.Errorf("usage: suggest [budget-mb] [-joint] [-budget <max-evals>] [-time <ms>]")
	opts := recommend.Options{Objects: recommend.ObjectsIndexes, Strategy: recommend.StrategyGreedy}
	fields := strings.Fields(rest)
	for i := 0; i < len(fields); i++ {
		switch f := strings.ToLower(fields[i]); f {
		case "-joint":
			opts.Objects = recommend.ObjectsJoint
		case "-budget", "-time":
			if i+1 >= len(fields) {
				return usage
			}
			n, err := strconv.Atoi(fields[i+1])
			if err != nil || n <= 0 {
				return usage
			}
			if f == "-budget" {
				opts.Budget.MaxEvaluations = int64(n)
			} else {
				opts.Budget.MaxDuration = time.Duration(n) * time.Millisecond
			}
			opts.Strategy = recommend.StrategyAnytime
			i++
		default:
			mb, err := strconv.Atoi(fields[i])
			if err != nil || mb <= 0 {
				return usage
			}
			opts.StorageBudget = int64(mb) << 20
		}
	}
	res, err := s.Recommend(context.Background(), opts)
	if err != nil {
		return err
	}
	kind := "greedy index suggestion"
	if opts.Objects == recommend.ObjectsJoint {
		kind = "joint index+partition suggestion"
	}
	fmt.Fprintf(out, "%s (%d candidates, %d rounds, %d evaluations, warm start: %d priced jobs reused):\n",
		kind, res.Candidates, res.Rounds, res.Evaluations, res.MemoHits)
	for _, stmt := range recommend.MaterializeStatements(res.Design.Indexes) {
		fmt.Fprintf(out, "  %s;\n", stmt)
	}
	for _, p := range res.Design.Partitions {
		fmt.Fprintf(out, "  partition %s\n", partitionGroups(p))
	}
	fmt.Fprintf(out, "  benefit %.1f%%  speedup %.2fx  size %.1f MB\n",
		100*res.AvgBenefit(), res.Speedup(), float64(res.SizeBytes+res.ReplicationBytes)/(1<<20))
	if res.Truncated {
		fmt.Fprintln(out, "  (budget exhausted: best design found so far)")
	}
	return nil
}

// splitKeyword splits "index photoobj(ra)" into ("index",
// "photoobj(ra)").
func splitKeyword(s string) (keyword, rest string) {
	s = strings.TrimSpace(s)
	i := strings.IndexAny(s, " \t")
	if i < 0 {
		return strings.ToLower(s), ""
	}
	return strings.ToLower(s[:i]), strings.TrimSpace(s[i:])
}

// printSummary is the one-line outcome of an edit: the headline
// benefit plus how little work the incremental engine did.
func printSummary(out io.Writer, rep *session.InteractiveReport) {
	fmt.Fprintf(out,
		"benefit %5.1f%%  speedup %5.2fx | %d invalidated, %d re-planned (session: %d optimizer calls, %d memo hits)\n",
		100*rep.AvgBenefit(), rep.Speedup(), rep.Invalidated, rep.Repriced,
		rep.PlanCalls, rep.MemoHits)
}

func printCosts(out io.Writer, rep *session.InteractiveReport) {
	for i, pq := range rep.PerQuery {
		benefit := 0.0
		if pq.BaseCost > 0 {
			benefit = 100 * (1 - pq.NewCost/pq.BaseCost)
		}
		fmt.Fprintf(out, "Q%-3d base %12.1f  new %12.1f  benefit %6.1f%%  uses %s\n",
			i+1, pq.BaseCost, pq.NewCost, benefit, strings.Join(pq.IndexesUsed, " "))
	}
	fmt.Fprintf(out, "total base %.1f  new %.1f  benefit %.1f%%  speedup %.2fx\n",
		rep.BaseCost, rep.NewCost, 100*rep.AvgBenefit(), rep.Speedup())
}

func printDesign(out io.Writer, s *session.DesignSession) {
	d := s.Design()
	if len(d.Indexes) == 0 && len(d.Partitions) == 0 {
		fmt.Fprintln(out, "design is empty")
	}
	for _, spec := range d.Indexes {
		fmt.Fprintf(out, "index      %s\n", spec.Key())
	}
	for _, p := range d.Partitions {
		fmt.Fprintf(out, "partition  %s\n", partitionGroups(p))
	}
	if !s.NestLoopEnabled() {
		fmt.Fprintln(out, "nestloop   off")
	}
	fmt.Fprintf(out, "signature  %q\n", s.Signature())
}

// partitionGroups renders a partitioning as "table: a,b | c,d" — the
// REPL's input syntax with spaced group separators.
func partitionGroups(p design.Partition) string {
	groups := make([]string, len(p.Fragments))
	for i, cols := range p.Fragments {
		groups[i] = strings.Join(cols, ",")
	}
	return p.Table + ": " + strings.Join(groups, " | ")
}

func replHelp(out io.Writer) {
	fmt.Fprint(out, `commands:
  create index <table>(<col>,<col>)   add a what-if index
  drop index <table>(<col>,<col>)     remove a design index
  partition <table>:<cols>|<cols>     set/replace a vertical partitioning
  drop partition <table>              remove a partitioning
  nestloop on|off                     toggle the what-if join method
  costs                               per-query costs under the design
  explain <n>                         plan of query n under the design
  design [-json]                      show the current design (JSON with -json)
  queries                             list the workload
  ingest <select statement>           stream a query into the local window
  window                              show the window (weights, drift)
  stats                               incremental-pricing counters
  suggest [budget-mb]                 greedy index advisor (memo warm start)
  suggest -joint [-budget <evals>]    joint index+partition recommender;
          [-time <ms>]                -budget/-time bound the anytime search
  undo                                revert the last edit
  redo                                re-apply the last undone edit
  help                                this command list
  quit                                leave the session
`)
}
