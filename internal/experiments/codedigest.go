// Code generated by gencodedigest.go; DO NOT EDIT.

package experiments

// codeDigest is analysis.CodeDigest of this package, this file left out:
// the SHA-256 of the non-test sources of internal/experiments and of every
// module-local package it imports, transitively. Every cell key carries
// it (cellCode), so a change to any code that computes a cell misses the
// persistent store.
const codeDigest = "603f1781a297173b988e114e1b459dea0bb517f8b3fab541e9e9e8c7eec5b0b5"
