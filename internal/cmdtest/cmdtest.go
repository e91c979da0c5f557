// Package cmdtest builds the repository's commands for tests that run
// them as processes.
//
// go test caches a passing result under a key made of the test binary,
// the environment variables the test read and the files it opened. A
// command the test builds with `go build` is none of these, so after an
// edit to the command alone go test would replay the stale pass. Build
// therefore opens every Go source and embedded file of the commands'
// non-standard-library dependencies, which puts those files into the
// key: an edit to any of them re-runs the test.
package cmdtest

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// listFiles prints one line per source file of a non-standard package.
const listFiles = `{{if not .Standard}}{{range .GoFiles}}{{$.Dir}}/{{.}}
{{end}}{{range .EmbedFiles}}{{$.Dir}}/{{.}}
{{end}}{{end}}`

// Build builds the named commands (directories under cmd/) into dir
// and returns each one's binary path by name.
func Build(t testing.TB, dir string, names ...string) map[string]string {
	t.Helper()
	pkgs := make([]string, len(names))
	bins := make(map[string]string, len(names))
	for i, n := range names {
		pkgs[i] = "repro/cmd/" + n
		bins[n] = filepath.Join(dir, n)
	}
	args := append([]string{"build", "-o", dir + string(filepath.Separator)}, pkgs...)
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", strings.Join(names, ", "), err, out)
	}
	out, err := exec.Command("go", append([]string{"list", "-deps", "-f", listFiles}, pkgs...)...).Output()
	if err != nil {
		t.Fatalf("listing the sources of %s: %v", strings.Join(names, ", "), err)
	}
	for _, path := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return bins
}
