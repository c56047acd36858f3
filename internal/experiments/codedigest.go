// Code generated by gencodedigest.go; DO NOT EDIT.

package experiments

// codeDigest is analysis.CodeDigest of this package, this file left out:
// the SHA-256 of the non-test sources of internal/experiments and of every
// module-local package it imports, transitively. Every cell key carries
// it (cellCode), so a change to any code that computes a cell misses the
// persistent store.
const codeDigest = "f90dc64c24adb7cfe21fad532001482764fa0a36cee885f683c2ec862dd70488"
