// Code generated by gencodedigest.go; DO NOT EDIT.

package experiments

// codeDigest is analysis.CodeDigest of this package, this file left out:
// the SHA-256 of the non-test sources of internal/experiments and of every
// module-local package it imports, transitively. Every cell key carries
// it (cellCode), so a change to any code that computes a cell misses the
// persistent store.
const codeDigest = "afd33c83af93a93a272e1a918d79ee76a9c9bbfb56a688695b9b6b841c3bc803"
