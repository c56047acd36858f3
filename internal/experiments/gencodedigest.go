//go:build ignore

// gencodedigest writes codedigest.go: the analysis.CodeDigest of this
// package, the file it writes left out. Run it through
//
//	go generate ./internal/experiments
//
// after editing any source a cell's result depends on;
// TestCodeDigestCurrent fails until it is rerun.
package main

import (
	"fmt"
	"os"

	"branchsim/internal/analysis"
)

const out = "codedigest.go"

func main() {
	digest, err := analysis.CodeDigest("../..", ".", out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gencodedigest:", err)
		os.Exit(1)
	}
	src := fmt.Sprintf(`// Code generated by gencodedigest.go; DO NOT EDIT.

package experiments

// codeDigest is analysis.CodeDigest of this package, this file left out:
// the SHA-256 of the non-test sources of internal/experiments and of every
// module-local package it imports, transitively. Every cell key carries
// it (cellCode), so a change to any code that computes a cell misses the
// persistent store.
const codeDigest = %q
`, digest)
	if err := os.WriteFile(out, []byte(src), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "gencodedigest:", err)
		os.Exit(1)
	}
}
