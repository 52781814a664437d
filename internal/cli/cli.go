// Package cli implements the command-line tools as testable functions:
// each Run* takes argument slices and writers and returns a process exit
// code. The cmd/ binaries are thin wrappers around these, except
// cqa-serve, whose command lives in package servecmd so the service
// binary does not link the experiment harness.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"cqa/internal/attack"
	"cqa/internal/baseline"
	"cqa/internal/catalog"
	"cqa/internal/core"
	"cqa/internal/db"
	"cqa/internal/evalctx"
	"cqa/internal/experiments"
	"cqa/internal/markov"
	"cqa/internal/match"
	"cqa/internal/ptime"
	"cqa/internal/query"
	"cqa/internal/rewrite"
	"cqa/internal/trace"
)

// RunClassify implements cqa-classify.
func RunClassify(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cqa-classify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dot := fs.Bool("dot", false, "print the attack graph in Graphviz DOT format")
	mkv := fs.Bool("markov", false, "print the Markov graph (simple-key queries)")
	plus := fs.Bool("plus", false, "print F^{+,q} for every atom")
	cat := fs.Bool("catalog", false, "classify every catalog query and exit")
	explain := fs.Bool("explain", false, "print the justification")
	asJSON := fs.Bool("json", false, "emit the classification as JSON")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: cqa-classify [flags] 'QUERY'\n\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cat {
		for _, e := range catalog.Entries() {
			cls, err := core.Classify(e.MustQuery())
			if err != nil {
				fmt.Fprintf(stderr, "%s: %v\n", e.Name, err)
				return 1
			}
			fmt.Fprintf(stdout, "%-28s %-14s %s\n", e.Name, cls.Class, e.Query)
		}
		return 0
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	q, err := parseNormalized(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	cls, err := core.Classify(q)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *asJSON {
		return emitClassificationJSON(cls, stdout, stderr)
	}
	fmt.Fprintf(stdout, "query:          %s\n", q)
	fmt.Fprintf(stdout, "classification: CERTAINTY(q) is %s\n", describeClass(cls.Class))
	fmt.Fprintf(stdout, "\nattack graph:\n%s\n", indent(cls.Graph.String()))
	if *explain {
		fmt.Fprintf(stdout, "\n%s\n", cls.Graph.Explain().Text)
	}
	if *plus {
		fmt.Fprintln(stdout, "\nF^{+,q} per atom:")
		for i, a := range q.Atoms {
			fmt.Fprintf(stdout, "  %s: %s\n", a.Rel.Name, cls.Graph.Plus[i])
		}
	}
	if *dot {
		fmt.Fprintf(stdout, "\n%s", cls.Graph.DOT())
	}
	if *mkv {
		m, err := markov.Build(q)
		if err != nil {
			fmt.Fprintf(stderr, "markov: %v\n", err)
		} else {
			fmt.Fprintf(stdout, "\nMarkov graph:\n%s\n", indent(m.String()))
			if c := m.PremierCycle(cls.Graph); c != nil {
				fmt.Fprintf(stdout, "premier Markov cycle: %v\n", c)
			}
		}
	}
	if baseline.InCforest(q) {
		fmt.Fprintln(stdout, "\nFuxman-Miller: q is in Cforest (FO-rewritable)")
	}
	if kp, err := baseline.KPClassify(q); err == nil {
		fmt.Fprintf(stdout, "Kolaitis-Pema (two atoms): %s\n", kp)
	}
	if ks, err := baseline.KSClassify(q); err == nil {
		fmt.Fprintf(stdout, "Koutris-Suciu (simple keys): %s\n", ks)
	}
	return 0
}

// printStages renders a tracer's stage breakdown (durations plus the
// per-stage counters the engines flush). No-op on a nil tracer, so the
// call sites need no -stages guard.
func printStages(stdout io.Writer, tr *trace.Tracer) {
	if tr == nil {
		return
	}
	stats := tr.Breakdown()
	if len(stats) == 0 {
		return
	}
	fmt.Fprintf(stdout, "stages (total %s):\n", tr.Elapsed().Round(time.Microsecond))
	for _, st := range stats {
		line := fmt.Sprintf("  %-12s %4d span(s) %10dus", st.Stage, st.Spans, st.Micros)
		keys := make([]string, 0, len(st.Counters))
		for k := range st.Counters {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			line += fmt.Sprintf("  %s=%d", k, st.Counters[k])
		}
		fmt.Fprintln(stdout, line)
	}
}

// RunCertain implements cqa-certain. stdin supplies the database when
// the -db argument is "-".
func RunCertain(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cqa-certain", flag.ContinueOnError)
	fs.SetOutput(stderr)
	qs := fs.String("q", "", "the Boolean conjunctive query")
	dbPath := fs.String("db", "", "path to the facts file ('-' for stdin)")
	engineName := fs.String("engine", "auto", "engine: auto, fo, ptime, conp")
	showRepair := fs.Bool("repair", false, "print a falsifying repair when not certain")
	answers := fs.String("answers", "", "comma-separated free variables: report certain answers")
	possible := fs.Bool("possible", false, "also report POSSIBILITY(q) (true in some repair)")
	count := fs.Bool("count", false, "also report the number of satisfying repairs (exact, or an anytime estimate on oversized components)")
	showTrace := fs.Bool("trace", false, "print the Theorem 4 pipeline trace (ptime engine)")
	showStages := fs.Bool("stages", false, "print the per-stage duration/counter breakdown after evaluation")
	timeout := fs.Duration("timeout", 0, "wall-clock evaluation deadline (0 = none)")
	maxSteps := fs.Int64("max-steps", 0, "engine step budget (0 = unlimited)")
	approx := fs.Bool("approx", false, "degrade a budget-exhausted coNP evaluation to the repair counter's estimate")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *qs == "" || *dbPath == "" {
		fs.Usage()
		return 2
	}
	q, err := parseNormalized(*qs)
	if err != nil {
		fmt.Fprintln(stderr, "cqa-certain:", err)
		return 2
	}
	var text []byte
	if *dbPath == "-" {
		text, err = io.ReadAll(stdin)
	} else {
		text, err = os.ReadFile(*dbPath)
	}
	if err != nil {
		fmt.Fprintln(stderr, "cqa-certain:", err)
		return 2
	}
	d, err := db.ParseFacts(q.Schema(), string(text))
	if err != nil {
		fmt.Fprintln(stderr, "cqa-certain:", err)
		return 2
	}
	if !d.ConsistentFor() {
		fmt.Fprintln(stderr, "cqa-certain: a mode-c relation of the input violates its primary key")
		return 2
	}
	engine, err := core.ParseEngine(*engineName)
	if err != nil {
		fmt.Fprintln(stderr, "cqa-certain:", err)
		return 2
	}
	plan, err := core.Compile(q)
	if err != nil {
		fmt.Fprintln(stderr, "cqa-certain:", err)
		return 2
	}
	ix := match.NewIndex(d)
	opts := core.Options{Engine: engine, MaxSteps: *maxSteps, Approximate: *approx}
	if *showStages {
		opts.Tracer = trace.New()
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *answers != "" {
		var free []query.Var
		for _, name := range strings.Split(*answers, ",") {
			name = strings.TrimSpace(name)
			if name != "" {
				free = append(free, query.Var(name))
			}
		}
		rows, err := plan.CertainAnswersIndexedCtx(ctx, free, ix, opts)
		if err != nil {
			fmt.Fprintln(stderr, "cqa-certain:", err)
			return 2
		}
		for _, row := range rows {
			fmt.Fprintln(stdout, query.Binding(free, row))
		}
		fmt.Fprintf(stderr, "%d certain answer(s)\n", len(rows))
		printStages(stdout, opts.Tracer)
		return 0
	}

	if *showTrace {
		ok, _, trace, err := ptime.CertainTraced(q, d, true)
		if err != nil {
			fmt.Fprintln(stderr, "cqa-certain: trace:", err)
			return 2
		}
		fmt.Fprintln(stdout, "pipeline trace (Theorem 4):")
		for _, line := range trace {
			fmt.Fprintf(stdout, "  %s\n", line)
		}
		fmt.Fprintf(stdout, "certain: %v\n", ok)
		if !ok {
			return 1
		}
		return 0
	}

	res, err := plan.CertainIndexedCtx(ctx, ix, opts)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			fmt.Fprintf(stderr, "cqa-certain: evaluation deadline of %s exceeded\n", *timeout)
		case errors.Is(err, evalctx.ErrBudgetExceeded):
			fmt.Fprintf(stderr, "cqa-certain: step budget of %d exhausted (use -approx to degrade to the repair counter's estimate)\n", *maxSteps)
		default:
			fmt.Fprintln(stderr, "cqa-certain:", err)
		}
		return 2
	}
	fmt.Fprintf(stdout, "class:   %s\n", res.Class)
	fmt.Fprintf(stdout, "engine:  %s\n", res.Engine)
	fmt.Fprintf(stdout, "certain: %v\n", res.Certain)
	if res.Approximate {
		fmt.Fprintf(stdout, "approximate: true (estimated satisfying fraction %.4f)\n", res.Fraction)
	}
	printStages(stdout, opts.Tracer)
	if *possible {
		fmt.Fprintf(stdout, "possible: %v\n", core.Possible(q, d))
	}
	if *count {
		// The count rides the same deadline/budget/tracer as the
		// decision, under the anytime contract: an oversized component
		// degrades to a sampled estimate instead of refusing.
		copts := opts
		copts.Approximate = true
		cres, err := plan.CountIndexedCtx(ctx, ix, copts)
		switch {
		case err != nil:
			fmt.Fprintln(stderr, "cqa-certain: count:", err)
		case cres.Exact:
			fmt.Fprintf(stdout, "satisfying repairs: %v of %v (%.4f)\n",
				cres.Satisfying, cres.Total, cres.Fraction)
		default:
			fmt.Fprintf(stdout, "satisfying repairs: ~%.4f of %v (±%.4f, %d of %d components sampled)\n",
				cres.Fraction, cres.Total, cres.Confidence, cres.Sampled, cres.Components)
		}
	}
	if !res.Certain && *showRepair {
		repair, found, err := core.FalsifyingRepair(q, d)
		if err != nil {
			fmt.Fprintln(stderr, "cqa-certain:", err)
			return 2
		}
		if found {
			fmt.Fprintln(stdout, "falsifying repair:")
			for _, f := range repair {
				fmt.Fprintf(stdout, "  %s\n", f)
			}
		}
	}
	if !res.Certain {
		return 1
	}
	return 0
}

// RunRewrite implements cqa-rewrite.
func RunRewrite(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cqa-rewrite", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cat := fs.Bool("catalog", false, "print rewritings for every FO catalog query")
	sqlOut := fs.Bool("sql", false, "emit the rewriting as SQL instead of logic notation")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	emit := func(q query.Query) (string, error) {
		// Compile once; both dialects render from the plan's elimination
		// order, so the attack graph is built a single time per query.
		plan, err := core.Compile(q)
		if err != nil {
			return "", err
		}
		if plan.Elim == nil {
			return "", fmt.Errorf("rewrite: attack graph of %s is cyclic; no first-order rewriting exists", q)
		}
		f := plan.Elim.Rewriting()
		if *sqlOut {
			return rewrite.SQLFromFormula(f), nil
		}
		return rewrite.Format(rewrite.Simplify(f)), nil
	}
	if *cat {
		for _, e := range catalog.Entries() {
			q := e.MustQuery()
			s, err := emit(q)
			if err != nil {
				continue
			}
			fmt.Fprintf(stdout, "%s\n  q   = %s\n  phi = %s\n\n", e.Name, q, s)
		}
		return 0
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: cqa-rewrite [-sql] 'QUERY'")
		return 2
	}
	q, err := query.Parse(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	s, err := emit(q)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, s)
	return 0
}

// RunBench implements cqa-bench.
func RunBench(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cqa-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment id (E1..E17, E21) or 'all'")
	quick := fs.Bool("quick", false, "shrink sweeps for a fast smoke run")
	list := fs.Bool("list", false, "list experiments and exit")
	seed := fs.Int64("seed", 1, "random seed")
	evalJSON := fs.String("evaljson", "", "run the E-index evaluation benchmarks and write the JSON report to this path")
	evalCheck := fs.String("evalcheck", "", "validate an E-index evaluation JSON report against the current harness and exit")
	evalAllocs := fs.String("evalallocs", "", "with -evalcheck: also compare the report's allocs/op with this artifact's on every shared row")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *evalCheck != "" {
		if err := experiments.ValidateEvalJSON(*evalCheck, *quick); err != nil {
			fmt.Fprintln(stderr, "cqa-bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s: evaluation report matches the current harness\n", *evalCheck)
		if *evalAllocs != "" {
			if err := experiments.CompareEvalAllocs(*evalAllocs, *evalCheck); err != nil {
				fmt.Fprintln(stderr, "cqa-bench:", err)
				return 1
			}
			fmt.Fprintf(stdout, "%s: allocs/op match %s\n", *evalCheck, *evalAllocs)
		}
		return 0
	}
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintf(stdout, "%-5s %s\n", id, experiments.Describe(id))
		}
		return 0
	}
	r := &experiments.Runner{Out: stdout, Quick: *quick, Seed: *seed}
	if *evalJSON != "" {
		if err := r.WriteEvalJSON(*evalJSON); err != nil {
			fmt.Fprintln(stderr, "cqa-bench:", err)
			return 1
		}
		return 0
	}
	if err := r.Run(*exp); err != nil {
		fmt.Fprintln(stderr, "cqa-bench:", err)
		return 1
	}
	return 0
}

// parseNormalized parses a query through core.Normalize — the same
// helper the server's plan cache keys on — so the CLIs and the service
// agree on the canonical form of textual variants (whitespace, atom
// order) of the same query.
func parseNormalized(s string) (query.Query, error) {
	q, _, err := core.Normalize(s)
	return q, err
}

func describeClass(c attack.Class) string {
	switch c {
	case attack.FO:
		return "in FO (acyclic attack graph; a consistent first-order rewriting exists)"
	case attack.PTime:
		return "in P but L-hard, not in FO (weak attack cycles only)"
	default:
		return "coNP-complete (the attack graph has a strong cycle)"
	}
}

func indent(s string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		lines[i] = "  " + l
	}
	return strings.Join(lines, "\n")
}
