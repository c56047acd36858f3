// Code generated by gencodedigest.go; DO NOT EDIT.

package experiments

// codeDigest is analysis.CodeDigest of this package, this file left out:
// the SHA-256 of the non-test sources of internal/experiments and of every
// module-local package it imports, transitively. Every cell key carries
// it (cellCode), so a change to any code that computes a cell misses the
// persistent store.
const codeDigest = "b94bbb12e54b5efb7a9371588a5ef34879e4192998416ce1447aee3c2cb91464"
