package experiments

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"branchsim/internal/analysis"
)

// digestFile is the generated file the code digest leaves out of its own
// input.
const digestFile = "codedigest.go"

// TestCodeDigestCurrent holds codeDigest to the sources it names: every
// cell key carries it, so a stale constant would let a store filled by
// older code serve this code's cells.
func TestCodeDigestCurrent(t *testing.T) {
	got, err := analysis.CodeDigest("../..", ".", digestFile)
	if err != nil {
		t.Fatal(err)
	}
	if got != codeDigest {
		t.Fatalf("codeDigest is stale (sources digest to %s): run go generate ./internal/experiments", got)
	}
}

// TestCodeDigestTracksSources recomputes the digest over a copy of the
// module's sources: the copy digests as the checkout does, and one byte
// changed in a delay-model coefficient, then one byte changed in the
// gshare predictor, each give a digest of their own.
func TestCodeDigestTracksSources(t *testing.T) {
	root := t.TempDir()
	copySources(t, "../..", root)
	dir := filepath.Join(root, "internal", "experiments")
	digest := func() string {
		t.Helper()
		d, err := analysis.CodeDigest(root, dir, digestFile)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	here, err := analysis.CodeDigest("../..", ".", digestFile)
	if err != nil {
		t.Fatal(err)
	}
	base := digest()
	if base != here {
		t.Fatalf("a copy of the sources digests to %s, the checkout to %s", base, here)
	}

	delay := filepath.Join(root, "internal", "delaymodel", "delaymodel.go")
	coef := regexp.MustCompile(`WireFO4PerSqrtByte:\s*[0-9.]*[0-9]`)
	restore := editFile(t, delay, func(src []byte) {
		loc := coef.FindIndex(src)
		if loc == nil {
			t.Fatalf("%s: no WireFO4PerSqrtByte coefficient in Default", delay)
		}
		src[loc[1]-1] = '0' + (src[loc[1]-1]-'0'+1)%10 // its last digit
	})
	delayed := digest()
	restore()
	if digest() != base {
		t.Fatal("restoring the coefficient did not restore the digest")
	}

	editFile(t, filepath.Join(root, "internal", "predictor", "gshare.go"), func(src []byte) {
		src[len(src)/2] ^= 1
	})
	predicted := digest()

	if delayed == base || predicted == base || delayed == predicted {
		t.Fatalf("digests do not separate the edits: base %s, coefficient %s, gshare %s", base, delayed, predicted)
	}
}

// copySources copies go.mod and every non-test Go file under from's
// internal tree, fixtures left out, into to.
func copySources(t *testing.T, from, to string) {
	t.Helper()
	copyFile(t, filepath.Join(from, "go.mod"), filepath.Join(to, "go.mod"))
	err := filepath.WalkDir(filepath.Join(from, "internal"), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(from, path)
		if err != nil {
			return err
		}
		copyFile(t, path, filepath.Join(to, rel))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func copyFile(t *testing.T, from, to string) {
	t.Helper()
	data, err := os.ReadFile(from)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(to), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(to, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// editFile rewrites path through edit, which changes its bytes in place,
// and returns a func that puts the original bytes back.
func editFile(t *testing.T, path string, edit func([]byte)) (restore func()) {
	t.Helper()
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	src := append([]byte(nil), orig...)
	edit(src)
	if err := os.WriteFile(path, src, 0o644); err != nil {
		t.Fatal(err)
	}
	return func() {
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
