package cdi

// The output digest: quick-mode `reproduce -exp all` must render byte for
// byte the committed testdata/reproduce_all.golden, at one worker and at
// two. Every experiment's table is pinned, so an engine or model change
// that moves any simulated instant, tie order or count shows up here
// instead of in a hand-run cmp. Regenerate the golden only for an
// intended output change, with `go test -run TestReproduceDigest -update .`
// and a CHANGES.md line naming the experiment that moved and why.

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/reproduce_all.golden from current output")

const digestGolden = "testdata/reproduce_all.golden"

func TestReproduceDigest(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "reproduce")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/reproduce").CombinedOutput(); err != nil {
		t.Fatalf("build reproduce: %v\n%s", err, out)
	}
	render := func(jobs string) []byte {
		cmd := exec.Command(bin, "-exp", "all", "-j", jobs)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("reproduce -exp all -j %s: %v\n%s", jobs, err, stderr.Bytes())
		}
		return out
	}
	j1 := render("1")
	if *update {
		if err := os.MkdirAll(filepath.Dir(digestGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestGolden, j1, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(digestGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	for _, run := range []struct {
		jobs string
		out  []byte
	}{{"1", j1}, {"2", render("2")}} {
		if !bytes.Equal(run.out, want) {
			t.Errorf("reproduce -exp all -j %s (sha256 %x) differs from %s (sha256 %x):\n%s",
				run.jobs, sha256.Sum256(run.out), digestGolden, sha256.Sum256(want), firstDiff(want, run.out))
		}
	}
}

// firstDiff reports the first differing line of two renderings, with its
// line number, for a readable failure.
func firstDiff(want, got []byte) string {
	w, g := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl []byte
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if !bytes.Equal(wl, gl) {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, wl, gl)
		}
	}
	return "(no line differs)"
}
