package analysis

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"go/build"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ModuleHasher computes a content hash per module-local package: the
// package's own non-test source bytes plus, transitively, those of every
// module-local package it imports, plus a caller-supplied salt. Findings
// are a pure function of those inputs (analyzers consult nothing else), so
// cmd/bplint keys its finding cache on the hash: equal hash, equal
// findings, no need to type-check or analyze at all.
type ModuleHasher struct {
	Module string // module path, e.g. "branchsim"
	Root   string // absolute module root directory
	Salt   string // folded into every hash; carries tool version and config

	skip  map[string]bool // absolute paths of source files left out
	memo  map[string]string
	state map[string]int // 0 new, 1 in progress (cycle guard), 2 done
}

// NewModuleHasher returns a hasher for the module rooted at root.
func NewModuleHasher(module, root, salt string) *ModuleHasher {
	return &ModuleHasher{
		Module: module,
		Root:   root,
		Salt:   salt,
		memo:   map[string]string{},
		state:  map[string]int{},
	}
}

// CodeDigest returns the transitive content hash (PackageHash, empty
// salt) of the package in dir, inside the module rooted at root: the
// SHA-256 of its non-test sources and those of every module-local package
// it imports. Files of dir named in exclude are left out, so a generated
// file can carry the digest of the sources around it. The hash covers
// import paths and file bytes only, so it does not depend on where the
// module is checked out. internal/experiments keys every stored cell on
// it (the generated codeDigest constant).
func CodeDigest(root, dir string, exclude ...string) (string, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return "", err
	}
	module, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	h := NewModuleHasher(module, root, "")
	h.skip = map[string]bool{}
	for _, name := range exclude {
		h.skip[filepath.Join(abs, name)] = true
	}
	return h.PackageHash(abs)
}

// PackageHash returns the transitive content hash of the package in dir,
// which must live inside the module.
func (h *ModuleHasher) PackageHash(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(h.Root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module %s", dir, h.Module)
	}
	path := h.Module
	if rel != "." {
		path = h.Module + "/" + filepath.ToSlash(rel)
	}
	return h.hash(path, abs)
}

func (h *ModuleHasher) hash(path, dir string) (string, error) {
	if v, ok := h.memo[path]; ok {
		return v, nil
	}
	if h.state[path] == 1 {
		// Import cycle: keep the hash total and let the loader report it.
		return "cycle:" + path, nil
	}
	h.state[path] = 1
	defer func() { h.state[path] = 2 }()

	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return "", fmt.Errorf("analysis: hashing %s: %w", dir, err)
	}
	hs := sha256.New()
	fmt.Fprintf(hs, "salt\x00%s\x00path\x00%s\x00", h.Salt, path)
	files := append([]string(nil), bp.GoFiles...)
	sort.Strings(files)
	for _, name := range files {
		if h.skip[filepath.Join(dir, name)] {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(hs, "file\x00%s\x00%d\x00", name, len(data))
		hs.Write(data)
	}
	imports := append([]string(nil), bp.Imports...)
	sort.Strings(imports)
	for _, imp := range imports {
		if imp != h.Module && !strings.HasPrefix(imp, h.Module+"/") {
			continue // standard library: pinned by the Go version in the salt
		}
		rel := strings.TrimPrefix(strings.TrimPrefix(imp, h.Module), "/")
		sub, err := h.hash(imp, filepath.Join(h.Root, filepath.FromSlash(rel)))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(hs, "dep\x00%s\x00%s\x00", imp, sub)
	}
	sum := hex.EncodeToString(hs.Sum(nil))
	h.memo[path] = sum
	return sum, nil
}
