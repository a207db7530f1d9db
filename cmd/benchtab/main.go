// Command benchtab regenerates the paper-reproduction tables: one per
// figure and complexity claim of the evaluation (the experiment index
// is internal/experiments.All).
//
// Usage:
//
//	benchtab [-exp all|F1,F2,...] [-seed N] [-quick] [-csv] [-json]
//	         [-regress FILE] [-tolerance X]
//
// With -json the selected tables are written as a JSON array of
// {title, headers, rows} objects — the format of the committed
// BENCH_*.json baselines, e.g.:
//
//	benchtab -exp T11,T12 -json > BENCH_scheduler.json
//
// With -regress the produced tables are compared against a committed
// baseline: every speedup cell (a same-process latency ratio, so the
// comparison is hardware-independent) is matched by table title and
// descriptor row key, and the run fails (exit 1) if any cell collapses
// below baseline/tolerance — the CI guard against step-latency
// regressions. Every selected table must have a baseline table of the
// same title, or the run fails naming it; rows absent from either side
// are skipped, so a -quick run checks against a full baseline.
// Comparing zero cells is itself an error, so silent key drift cannot
// green-wash the gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"netorient/internal/experiments"
	"netorient/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchtab", flag.ContinueOnError)
	var (
		expList   = fs.String("exp", "all", "comma-separated experiment ids, or 'all'")
		seed      = fs.Int64("seed", 42, "random seed (fixed seed ⇒ identical tables)")
		quick     = fs.Bool("quick", false, "smaller sweeps")
		trials    = fs.Int("trials", 0, "override per-point trials (0 = default)")
		csv       = fs.Bool("csv", false, "emit CSV instead of aligned text")
		jsonOut   = fs.Bool("json", false, "emit a JSON array of tables (for BENCH_*.json baselines)")
		regress   = fs.String("regress", "", "baseline BENCH_*.json to compare latency columns against")
		tolerance = fs.Float64("tolerance", 2.0, "fail when a speedup cell collapses below baseline/tolerance")
		workers   = fs.Int("workers", 0, "extra worker count for parallel-stepper sweeps (0 = default sweep)")
		reshardIm = fs.Float64("reshard-imbalance", 0, "arm work-driven resharding at this max/mean per-shard work ratio (≤1 = off)")
		reshardIv = fs.Int64("reshard-interval", 0, "minimum steps between automatic reshards (0 = policy default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := experiments.Config{
		Seed: *seed, Quick: *quick, Trials: *trials, Workers: *workers,
		ReshardImbalance: *reshardIm, ReshardMinInterval: *reshardIv,
	}

	var selected []experiments.Experiment
	if *expList == "all" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*expList, ",") {
			e, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q (known: F1..F3, T1..T15, T17)", id)
			}
			selected = append(selected, e)
		}
	}

	var baseline []jsonTable
	if *regress != "" {
		data, err := os.ReadFile(*regress)
		if err != nil {
			return fmt.Errorf("regress baseline: %w", err)
		}
		if err := json.Unmarshal(data, &baseline); err != nil {
			return fmt.Errorf("regress baseline %s: %w", *regress, err)
		}
	}

	var tables []*trace.Table
	if *jsonOut {
		fmt.Println("[")
	}
	for i, e := range selected {
		tb, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		tables = append(tables, tb)
		switch {
		case *jsonOut:
			if i > 0 {
				fmt.Println(",")
			}
			if err := tb.RenderJSON(os.Stdout); err != nil {
				return err
			}
		case *csv:
			if i > 0 {
				fmt.Println()
			}
			fmt.Printf("== %s: %s ==\n", e.ID, e.Artefact)
			if err := tb.RenderCSV(os.Stdout); err != nil {
				return err
			}
		default:
			if i > 0 {
				fmt.Println()
			}
			fmt.Printf("== %s: %s ==\n", e.ID, e.Artefact)
			if err := tb.Render(os.Stdout); err != nil {
				return err
			}
		}
	}
	if *jsonOut {
		fmt.Println("]")
	}

	if *regress != "" {
		return checkRegression(tables, baseline, *tolerance)
	}
	return nil
}

// jsonTable mirrors trace.Table's RenderJSON schema.
type jsonTable struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// descriptorCols returns how many leading columns describe the row
// rather than measure it: everything before the "steps" column (the
// first run parameter), or before the first measured column for
// tables without one. Measured values — including convergence step
// counts, which shift whenever a protocol change alters the
// trajectory — must stay out of the key, or changed rows silently
// stop matching the baseline.
func descriptorCols(headers []string) int {
	for i, h := range headers {
		if h == "steps" || h == "events" || strings.Contains(h, "ns/step") ||
			strings.Contains(h, "evals") || strings.Contains(h, "scans") ||
			strings.Contains(h, "speedup") {
			return i
		}
	}
	return len(headers)
}

// rowKey identifies a row within a table for baseline matching by its
// descriptor prefix (phase, graph name, n, …).
func rowKey(row []string, descriptors int) string {
	n := descriptors
	if n > len(row) {
		n = len(row)
	}
	return strings.Join(row[:n], "/")
}

// checkRegression compares every "speedup" cell of the produced
// tables against the baseline and errors when one collapses below
// baseline/tolerance. Speedups are same-process ratios (incremental
// vs full scan, witness vs Legitimate() scan), so the comparison is
// hardware-independent — a CI runner slower than the machine that
// produced the baseline shifts both sides of each ratio equally,
// while a reintroduced O(n) scan collapses it.
func checkRegression(tables []*trace.Table, baseline []jsonTable, tolerance float64) error {
	byTitle := make(map[string]jsonTable, len(baseline))
	for _, b := range baseline {
		byTitle[b.Title] = b
	}
	checked, failures := 0, 0
	for _, tb := range tables {
		var got jsonTable
		var buf strings.Builder
		if err := tb.RenderJSON(&buf); err != nil {
			return err
		}
		if err := json.Unmarshal([]byte(buf.String()), &got); err != nil {
			return err
		}
		base, ok := byTitle[got.Title]
		if !ok {
			return fmt.Errorf("table %q has no baseline table of the same title (regenerate the baseline or deselect the experiment)", got.Title)
		}
		desc := descriptorCols(base.Headers)
		baseRows := make(map[string][]string, len(base.Rows))
		for _, r := range base.Rows {
			baseRows[rowKey(r, desc)] = r
		}
		for _, row := range got.Rows {
			key := rowKey(row, descriptorCols(got.Headers))
			bRow, ok := baseRows[key]
			if !ok {
				continue // row not measured in the baseline (e.g. a new sweep point)
			}
			for col, h := range got.Headers {
				if !strings.Contains(h, "speedup") || col >= len(row) {
					continue
				}
				bCol := -1
				for j, bh := range base.Headers {
					if bh == h {
						bCol = j
						break
					}
				}
				if bCol < 0 || bCol >= len(bRow) {
					continue
				}
				now, err1 := strconv.ParseFloat(row[col], 64)
				was, err2 := strconv.ParseFloat(bRow[bCol], 64)
				if err1 != nil || err2 != nil || was <= 0 {
					continue
				}
				checked++
				if now < was/tolerance {
					failures++
					fmt.Fprintf(os.Stderr, "benchtab: REGRESSION %q / %s / %s: speedup %.2fx vs baseline %.2fx (collapsed %.2fx > %.2fx tolerance)\n",
						got.Title, key, h, now, was, was/now, tolerance)
				}
			}
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d speedup cells collapsed beyond %.2fx", failures, checked, tolerance)
	}
	if checked == 0 {
		return fmt.Errorf("regression check compared no cells — baseline rows no longer match (regenerate the baseline or fix the row keys)")
	}
	fmt.Fprintf(os.Stderr, "benchtab: regression check passed (%d speedup cells within %.2fx of baseline)\n", checked, tolerance)
	return nil
}
