package main

import (
	"strings"
	"testing"
)

func TestCheck(t *testing.T) {
	values := map[string]string{"tools/modelgate.expect": "4.323", "tools/modelgate.steal_max": "11.9"}
	for _, c := range []struct {
		name, doc string
		want      []string // a substring of each problem, in order
	}{
		{"quote matches its source", "`recovery_model_us` 4.323\n(`tools/modelgate.expect`).\n", nil},
		{"quote out of step", "`recovery_model_us` is\n6.324 (`tools/modelgate.expect`).\n", []string{"doc.md:1: cites tools/modelgate.expect"}},
		{"quote without its source", "intro\n\n- `steal_model_us` ≈ 10.2 on `failover`\n", []string{"doc.md:3: quotes a number beside steal_model_us"}},
		{"name alone quotes nothing", "`recovery_model_us` (the model latency) moved.\n", nil},
		{"each list item alone", "- `recovery_model_us` 4.323, `tools/modelgate.expect`\n- `recovery_model_us` 8.324\n", []string{"doc.md:2: quotes"}},
		{"historical region exempt", "<!-- docs-check: historical -->\n`recovery_model_us` 8.324\n<!-- docs-check: end -->\nnow `recovery_model_us` 4.323 (`tools/modelgate.expect`)\n", nil},
		{"region never ended", "<!-- docs-check: historical -->\n`recovery_model_us` 8.324\n", []string{"never ended"}},
		{"end without region", "<!-- docs-check: end -->\n", []string{"without a region"}},
	} {
		got := check("doc.md", c.doc, values)
		if len(got) != len(c.want) {
			t.Errorf("%s: problems %q, want %d", c.name, got, len(c.want))
			continue
		}
		for i, w := range c.want {
			if !strings.Contains(got[i], w) {
				t.Errorf("%s: problem %q, want it to say %q", c.name, got[i], w)
			}
		}
	}
}
