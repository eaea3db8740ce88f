// Command docscheck fails when a document quotes a pinned number that
// differs from the file the number is pinned in. Each source is a file
// holding one number and the metric that number is for:
//
//   - tools/modelgate.expect: recovery_model_us, the failover recovery
//     cycle's modelled latency;
//   - tools/modelgate.steal_max: steal_model_us's ceiling.
//
// The checked documents are split into units — a paragraph, a list item,
// a table row, a heading. Outside historical regions, a unit that names a
// source's file must contain the file's number, and a unit that names the
// source's metric beside a decimal number must name the file: a number
// quoted as current is written next to where it comes from. A
// historical region — old measurements, kept as they were — runs from a
// line holding <!-- docs-check: historical --> to one holding
// <!-- docs-check: end --> and is not checked. CHANGES.md is a log, not
// checked at all.
//
//	go run ./tools/docscheck        # from the repository root
//	make docs-check
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// source is one pinned number: the file it lives in and the metric it is.
type source struct {
	file, metric string
}

var sources = []source{
	{"tools/modelgate.expect", "recovery_model_us"},
	{"tools/modelgate.steal_max", "steal_model_us"},
}

// docs are the documents whose quotes are checked.
var docs = []string{
	"README.md",
	"DESIGN.md",
	"EXPERIMENTS.md",
	"ROADMAP.md",
	".claude/skills/verify/SKILL.md",
}

const (
	historical = "<!-- docs-check: historical -->"
	end        = "<!-- docs-check: end -->"
)

var (
	number  = regexp.MustCompile(`\d+(\.\d+)?`)
	decimal = regexp.MustCompile(`\d+\.\d+`)
	starts  = regexp.MustCompile(`^\s*([-*+]\s|\d+\.\s|\||#)`)
)

// unit is a run of lines the check reads as one statement.
type unit struct {
	line int // 1-based, of its first line
	text string
}

// units splits a document into units, leaving out historical regions. It
// fails on a region left open or an end marker without its start.
func units(doc string) ([]unit, error) {
	var out []unit
	var cur *unit
	inHistory := false
	for i, line := range strings.Split(doc, "\n") {
		switch {
		case strings.Contains(line, historical):
			if inHistory {
				return nil, fmt.Errorf("line %d: historical region opened inside another", i+1)
			}
			inHistory, cur = true, nil
			continue
		case strings.Contains(line, end):
			if !inHistory {
				return nil, fmt.Errorf("line %d: %s without a region to end", i+1, end)
			}
			inHistory, cur = false, nil
			continue
		}
		if inHistory {
			continue
		}
		if strings.TrimSpace(line) == "" {
			cur = nil
			continue
		}
		if cur == nil || starts.MatchString(line) {
			out = append(out, unit{line: i + 1})
			cur = &out[len(out)-1]
		}
		cur.text += line + "\n"
	}
	if inHistory {
		return nil, fmt.Errorf("historical region never ended")
	}
	return out, nil
}

// hasNumber reports whether text holds value as a whole number token.
func hasNumber(text, value string) bool {
	for _, m := range number.FindAllString(text, -1) {
		if m == value {
			return true
		}
	}
	return false
}

// check returns one message per unit of doc (named name) that breaks a
// rule for the sources, whose numbers values holds by file.
func check(name, doc string, values map[string]string) []string {
	us, err := units(doc)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", name, err)}
	}
	var out []string
	for _, u := range us {
		for _, s := range sources {
			cites := strings.Contains(u.text, s.file)
			switch {
			case cites && !hasNumber(u.text, values[s.file]):
				out = append(out, fmt.Sprintf("%s:%d: cites %s but does not quote its %s", name, u.line, s.file, values[s.file]))
			case !cites && strings.Contains(u.text, s.metric) && decimal.MatchString(u.text):
				out = append(out, fmt.Sprintf("%s:%d: quotes a number beside %s without citing %s (%s), or mark it historical", name, u.line, s.metric, s.file, values[s.file]))
			}
		}
	}
	return out
}

func run(root string) ([]string, error) {
	values := make(map[string]string, len(sources))
	for _, s := range sources {
		b, err := os.ReadFile(filepath.Join(root, s.file))
		if err != nil {
			return nil, err
		}
		v := strings.TrimSpace(string(b))
		if number.FindString(v) != v {
			return nil, fmt.Errorf("%s holds %q, not a number", s.file, v)
		}
		values[s.file] = v
	}
	var out []string
	for _, name := range docs {
		b, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			return nil, err
		}
		out = append(out, check(name, string(b), values)...)
	}
	return out, nil
}

func main() {
	problems, err := run(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(2)
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d quote(s) out of step with their source\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docscheck: every quoted pinned number matches its source")
}
