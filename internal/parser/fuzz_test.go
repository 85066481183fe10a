package parser_test

import (
	"testing"

	"snap/internal/apps"
	"snap/internal/parser"
)

// FuzzParse: the parser takes programs from outside the process (snapc
// -program), so every input must come back as a policy or an error, never
// a panic. Seeded from the Table 3 catalogue, parsed under each app's own
// constants so the seeds reach past name resolution.
func FuzzParse(f *testing.F) {
	all := apps.All()
	for i, a := range all {
		f.Add(a.Source, uint8(i))
	}
	f.Fuzz(func(t *testing.T, src string, app uint8) {
		p, err := parser.ParseWith(src, all[int(app)%len(all)].Opts)
		if err == nil && p == nil {
			t.Fatalf("no policy and no error for %q", src)
		}
	})
}
