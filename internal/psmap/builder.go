// Builder: packet-state mapping with cross-build memoization for the
// delta compilation path. A mapping is a pure function of (diagram root,
// OBS ports); hash-consed roots make pointer identity structural
// identity, so an edit that cycles back to the diagram built before it
// (an edit and its revert) resolves to its cached mapping without a walk,
// and a build recalls per-leaf facts from the builds it keeps because
// edited diagrams overwhelmingly reuse the old diagram's leaves. A port
// set keeps its last two builds: older mappings and leaf facts, and the
// translator stores their diagram pointers pin, are released.
package psmap

import (
	"sort"
	"strconv"
	"strings"

	"snap/internal/xfdd"
)

// Builder memoizes packet-state mapping builds. Not safe for concurrent
// use; the compiler drives it from one goroutine.
type Builder struct {
	buckets map[string]*builderBucket
}

// builderBucket holds the caches for one OBS port set: the build of the
// diagram last asked for, then the one before it.
type builderBucket struct {
	ports  []int
	builds [2]*build
}

// build is one cached mapping with the facts of the leaves its walk met.
type build struct {
	root     *xfdd.Diagram
	result   *Mapping
	leafInfo map[*xfdd.Diagram][]leafEntry
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{buckets: map[string]*builderBucket{}}
}

// Build computes (or recalls) the packet-state mapping of d over ports.
// The returned Mapping is shared with the cache: callers must treat it as
// immutable, which every downstream consumer already does.
func (bl *Builder) Build(d *xfdd.Diagram, ports []int) *Mapping {
	sorted := append([]int(nil), ports...)
	sort.Ints(sorted)
	var sb strings.Builder
	for _, p := range sorted {
		sb.WriteString(strconv.Itoa(p))
		sb.WriteByte(',')
	}
	key := sb.String()

	bk := bl.buckets[key]
	if bk == nil {
		bk = &builderBucket{ports: sorted}
		bl.buckets[key] = bk
	}
	for i, kept := range bk.builds {
		if kept != nil && kept.root == d {
			bk.builds[0], bk.builds[i] = kept, bk.builds[0] // most recent first
			return kept.result
		}
	}

	m := &Mapping{
		Vars: map[[2]int]map[string]bool{},
		All:  map[string]bool{},
	}
	b := &builder{m: m, allPorts: bk.ports, leafInfo: map[*xfdd.Diagram][]leafEntry{}}
	for _, kept := range bk.builds {
		if kept != nil {
			b.warm = append(b.warm, kept.leafInfo)
		}
	}
	b.walk(d, newPortSet(bk.ports), nil)
	bk.builds = [2]*build{{root: d, result: m, leafInfo: b.leafInfo}, bk.builds[0]}
	return m
}

// CachedBuilds reports the largest number of builds any port set holds;
// the bound tests read it.
func (bl *Builder) CachedBuilds() int {
	most := 0
	for _, bk := range bl.buckets {
		n := 0
		for _, kept := range bk.builds {
			if kept != nil {
				n++
			}
		}
		most = max(most, n)
	}
	return most
}
