package design

import (
	"sort"
	"strings"

	"repro/internal/sql"
)

// This file produces the two persisted design identities. Both are
// journaled (cost-memo keys in snapshots, SharedState.Sig in the
// write-ahead log) and compared across restarts, so their formats are
// frozen: a change here turns a warm recovery into re-pricing.

// Key is the canonical, order-independent identity of a whole design:
// the sorted index keys, then — when the design is partitioned —
// "//part:" and the sorted partition keys. For an index-only design it
// is the index configuration's key (costlab.ConfigKey delegates here),
// so joint pricing shares memo entries with index-only pricing.
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

// ProjectedKey is the identity of d as one query sees it — the design
// session's memo key: only the partitionings of tables the footprint
// touches, the indexes whose (parent) table it touches, and — when the
// query's plan can contain a join — a disabled nested-loop flag
// participate, so an edit elsewhere leaves the key, and the memoized
// state, untouched. parents is d's fragment → parent map, as Validate
// returns it.
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
