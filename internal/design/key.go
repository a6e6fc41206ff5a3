package design

import (
	"maps"
	"slices"
	"sort"
	"strings"

	"repro/internal/sql"
)

// This file produces the design identities. ProjectedKey is journaled
// (SharedState.Sig in the write-ahead log and in snapshots) and
// compared across restarts, so its format is frozen: a change here
// turns a warm recovery into re-pricing. Key is process-local (the
// identity a pooled what-if session's held design is compared by) but
// pinned by the same golden test.

// Key is the canonical, order-independent identity of a whole design:
// the sorted index keys, then — when the design is partitioned —
// "//part:" and the sorted partition keys.
func Key(d Design) string {
	var key string
	if len(d.Indexes) > 0 {
		keys := make([]string, len(d.Indexes))
		for i, spec := range d.Indexes {
			keys[i] = spec.Key()
		}
		sort.Strings(keys)
		key = strings.Join(keys, ";")
	}
	if len(d.Partitions) == 0 {
		return key
	}
	parts := make([]string, 0, len(d.Partitions))
	for _, p := range d.Partitions {
		parts = append(parts, partKey(p))
	}
	sort.Strings(parts)
	return key + "//part:" + strings.Join(parts, ";")
}

// ProjectedKey is the identity of d as one query sees it — the key of
// every pricing memo: only the partitionings of tables the footprint
// touches, the indexes whose (parent) table it touches, and — when the
// query's plan can contain a join — a disabled nested-loop flag
// participate, so an edit elsewhere leaves the key, and the memoized
// cost, untouched. parents is d's fragment → parent map, as Validate
// (or FragmentParents) returns it.
func ProjectedKey(d Design, parents map[string]string, fp *sql.Footprint, nestLoop bool) string {
	var parts []string
	join := fp.Relations >= 2
	for _, p := range d.Partitions {
		if fp.TouchesTable(p.Table) {
			parts = append(parts, "part:"+partKey(p))
			join = true // fragment rewrites can introduce joins
		}
	}
	for _, spec := range d.Indexes {
		parent := spec.Table
		if p, ok := parents[spec.Table]; ok {
			parent = p
		}
		if fp.TouchesTable(parent) {
			parts = append(parts, "ix:"+spec.Key())
		}
	}
	sort.Strings(parts)
	if join && !nestLoop {
		parts = append(parts, "nl:off")
	}
	return strings.Join(parts, ";")
}

// Classes numbers footprints by all that ProjectedKey reads of them —
// the sorted table set and whether the query names two or more
// relations — so the queries of one class share one projected key per
// design and a caller computes it once per class. class[i] is fps[i]'s
// class, numbered from 0 in first-seen order.
func Classes(fps []*sql.Footprint) []int {
	class := make([]int, len(fps))
	ids := map[string]int{}
	for i, fp := range fps {
		key := strings.Join(slices.Sorted(maps.Keys(fp.Tables)), ",")
		if fp.Relations >= 2 {
			key += ";join"
		}
		c, ok := ids[key]
		if !ok {
			c = len(ids)
			ids[key] = c
		}
		class[i] = c
	}
	return class
}

// partKey canonicalizes one partitioning: "table:a,b|c". Fragment
// order matters — it fixes the generated fragment names.
func partKey(p Partition) string {
	var sb strings.Builder
	sb.WriteString(p.Table)
	sb.WriteByte(':')
	for i, cols := range p.Fragments {
		if i > 0 {
			sb.WriteByte('|')
		}
		sb.WriteString(strings.Join(cols, ","))
	}
	return sb.String()
}
