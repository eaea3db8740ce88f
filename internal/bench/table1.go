package bench

import (
	"fmt"
	"strings"

	"pandora/internal/core"
	"pandora/internal/litmus"
)

// Table1Result summarises the litmus validation of Table 1: the fixed
// protocols pass every litmus test, and each seeded FORD bug is caught
// by the test the paper attributes it to.
type Table1Result struct {
	FixedReports []litmus.Report
	BugRows      []BugRow
}

// BugRow is one seeded-bug detection outcome.
type BugRow struct {
	Bug        string
	Category   string
	Litmus     string
	Violations int
	Iterations int
}

// Table1 runs the litmus validation: the fixed protocol for iterations
// per test, and each seeded bug in its pinned run (litmus.SeededBugs).
func Table1(iterations int) (*Table1Result, error) {
	res := &Table1Result{}

	fixed, err := litmus.RunAll(litmus.Config{
		Protocol:   core.ProtocolPandora,
		Iterations: iterations,
		Seed:       1,
	})
	if err != nil {
		return nil, err
	}
	res.FixedReports = fixed

	for _, bc := range litmus.SeededBugs() {
		rep, err := litmus.RunTest(bc.Test, bc.Config())
		if err != nil {
			return nil, err
		}
		res.BugRows = append(res.BugRows, BugRow{
			Bug:        bc.Name,
			Category:   bc.Category,
			Litmus:     bc.Test.Name,
			Violations: len(rep.Violations),
			Iterations: rep.Iterations,
		})
	}
	return res, nil
}

// String renders the validation summary.
func (r *Table1Result) String() string {
	var b strings.Builder
	b.WriteString("Litmus validation (fixed Pandora, crash injection):\n")
	for _, rep := range r.FixedReports {
		status := "PASS"
		if len(rep.Violations) > 0 {
			status = fmt.Sprintf("FAIL (%d violations)", len(rep.Violations))
		}
		fmt.Fprintf(&b, "  %-28s %-6s (%d iters, %d crashes, %d recoveries)\n",
			rep.Test, status, rep.Iterations, rep.Crashes, rep.Recoveries)
	}
	b.WriteString("Seeded Table-1 bugs (must be caught):\n")
	for _, row := range r.BugRows {
		status := "CAUGHT"
		if row.Violations == 0 {
			status = "MISSED"
		}
		fmt.Fprintf(&b, "  %-20s %-3s via %-28s %-7s (%d violations)\n",
			row.Bug, row.Category, row.Litmus, status, row.Violations)
	}
	return b.String()
}
