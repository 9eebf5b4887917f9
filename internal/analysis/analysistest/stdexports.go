package analysistest

import (
	"sort"
	"strings"
	"sync"

	"reesift/internal/analysis"
)

// stdExports maps the given standard-library import paths (plus their
// transitive dependencies) to compiler export data files via
// analysis.ListExports. Results are cached per test process: fixture
// packages share a small stdlib footprint, so the go command usually
// runs once.
func stdExports(imports []string) (map[string]string, error) {
	seen := make(map[string]bool)
	var paths []string
	for _, p := range imports {
		if p == "unsafe" || seen[p] {
			continue
		}
		seen[p] = true
		paths = append(paths, p)
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return map[string]string{}, nil
	}
	key := strings.Join(paths, ",")

	exportCache.Lock()
	defer exportCache.Unlock()
	if m, ok := exportCache.m[key]; ok {
		return m, nil
	}
	m, _, err := analysis.ListExports("", paths...)
	if err != nil {
		return nil, err
	}
	exportCache.m[key] = m
	return m, nil
}

var exportCache = struct {
	sync.Mutex
	m map[string]map[string]string
}{m: make(map[string]map[string]string)}
