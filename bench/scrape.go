package main

// Reading the server's own counters from outside: GET /stats (JSON,
// flattened to dotted keys) and GET /metrics (Prometheus text, keyed
// by the series as printed). Scraped before and after a section, the
// difference gives exact counts — plan calls, memo hits and misses,
// evictions, singleflight waits, WAL appends — for that section.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

type counters map[string]float64

// scrape reads both endpoints. /metrics is optional: a server started
// with -metrics=false answers 404 and only /stats keys are returned.
func scrape(c *client) (counters, error) {
	out := counters{}
	r := c.do("GET", "/stats", nil)
	if !r.ok() {
		return nil, fmt.Errorf("GET /stats: %s", r.describe())
	}
	var tree any
	if err := json.Unmarshal(r.body, &tree); err != nil {
		return nil, fmt.Errorf("GET /stats: decode: %w", err)
	}
	flatten("stats", tree, out)

	r = c.do("GET", "/metrics", nil)
	if r.err != nil {
		return nil, fmt.Errorf("GET /metrics: %v", r.err)
	}
	if r.status == 200 {
		sc := bufio.NewScanner(bytes.NewReader(r.body))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || line[0] == '#' {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			if i < 0 {
				continue
			}
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] = v
			}
		}
	}
	return out, nil
}

func flatten(prefix string, v any, out counters) {
	switch x := v.(type) {
	case map[string]any:
		for k, c := range x {
			flatten(prefix+"."+k, c, out)
		}
	case float64:
		out[prefix] = x
	}
}

// delta is after − before for one key; a key missing on either side
// counts as 0 there.
func delta(before, after counters, key string) float64 { return after[key] - before[key] }

// ratio is num / (num + den), or 0 when both are 0.
func ratio(num, den float64) float64 {
	if num+den == 0 {
		return 0
	}
	return num / (num + den)
}
