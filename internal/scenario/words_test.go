package scenario

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"
)

// wordKeys are the keys beside each word that its decode requires; a word
// not listed here is decoded on its own.
var wordKeys = map[string][]string{
	"set-network":        {"cohort: a", "network: 4g"},
	"load-spike":         {"cohort: a", "factor: 2", "duration: 100ms"},
	"fault-plan":         {"plan: healthy"},
	"kill-shard":         {"shard: 1"},
	"set-floor":          {"min_runtimes: 1", "max_runtimes: 1"},
	"remove-shard":       {"shard: 1"},
	"fail-shard":         {"shard: 1"},
	"success-rate":       {"min: 0"},
	"p50":                {"max: 1h"},
	"p99":                {"max: 1h"},
	"max-latency":        {"max: 1h"},
	"final-pool":         {"min: 0"},
	"min-requests":       {"min: 1"},
	"warehouse-hit-rate": {"min: 0"},
	"overloads":          {"max: 100"},
	"boot-p50":           {"max: 1h"},
	"boot-p99":           {"max: 1h"},
	"live-shards":        {"min: 1"},
	"success-rate-after": {"after: 0s", "min: 0"},
}

const wordsBase = `name: words
shards: 2
platform:
  autoscale: true
  max_runtimes: 2
fleet:
  - cohort: a
    devices: 4
    network: lan-wifi
    linpack_order: 24
    duration: 1s
`

// TestEveryWordIsDecodedAndDocumented collects the EventKind and
// AssertionKind constants from scenario.go and, for each word, decodes a
// minimal scenario that uses it and checks the decoded kind; runs each
// assertion and checks its report row's type; and requires the word,
// backquoted, in DESIGN.md's "Scenario simulator" section. A constant
// with no decode case, or with no mention in DESIGN.md, fails here.
func TestEveryWordIsDecodedAndDocumented(t *testing.T) {
	words := kindWords(t, "scenario.go")
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	section := string(design)
	start := strings.Index(section, "## Scenario simulator")
	if start < 0 {
		t.Fatal(`DESIGN.md has no "## Scenario simulator" section`)
	}
	section = section[start+1:]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}

	for _, typ := range []string{"EventKind", "AssertionKind"} {
		if len(words[typ]) == 0 {
			t.Fatalf("no %s constants found in scenario.go", typ)
		}
		for _, w := range words[typ] {
			if !strings.Contains(section, "`"+w+"`") {
				t.Errorf("%s %q is not named in DESIGN.md's Scenario simulator section", typ, w)
			}
			keys := ""
			for _, k := range wordKeys[w] {
				keys += "    " + k + "\n"
			}
			if typ == "EventKind" {
				scn, err := Decode([]byte(wordsBase + "events:\n  - at: 500ms\n    action: " + w + "\n" + keys))
				if err != nil {
					t.Errorf("event %q: %v", w, err)
				} else if got := scn.Events[0].Kind; got != EventKind(w) {
					t.Errorf("event %q decoded as %q", w, got)
				}
				continue
			}
			scn, err := Decode([]byte(wordsBase + "assertions:\n  - type: " + w + "\n" + keys))
			if err != nil {
				t.Errorf("assertion %q: %v", w, err)
				continue
			}
			if got := scn.Assertions[0].Kind; got != AssertionKind(w) {
				t.Errorf("assertion %q decoded as %q", w, got)
			}
			rep, err := Run(scn)
			if err != nil {
				t.Fatal(err)
			}
			if got := rep.Assertions[0].Type; got != w {
				t.Errorf("assertion %q reported as type %q", w, got)
			}
		}
	}
}

// kindWords parses file and returns, per kind type name, the string
// values of the constants declared with that type.
func kindWords(t *testing.T, file string) map[string][]string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	words := map[string][]string{}
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok {
			return true
		}
		typ, ok := vs.Type.(*ast.Ident)
		if !ok || typ.Name != "EventKind" && typ.Name != "AssertionKind" {
			return true
		}
		for i, name := range vs.Names {
			var lit *ast.BasicLit
			if i < len(vs.Values) {
				lit, _ = vs.Values[i].(*ast.BasicLit)
			}
			if lit == nil || lit.Kind != token.STRING {
				t.Fatalf("%s %s is not a string literal: every kind is its YAML word", typ.Name, name.Name)
			}
			w, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			words[typ.Name] = append(words[typ.Name], w)
		}
		return true
	})
	return words
}
