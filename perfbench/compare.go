package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// compareMain prints, for two files of run records, the median of every
// metric of every workload side by side, and warns when the records
// came from hosts with different fingerprints.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare <old results.jsonl> <new results.jsonl>")
		return 2
	}
	var sides [2][]record
	for i, path := range args {
		recs, err := readRecords(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		sides[i] = recs
	}
	hosts := map[fingerprint]bool{}
	for _, recs := range sides {
		for _, r := range recs {
			hosts[r.Host] = true
		}
	}
	if len(hosts) > 1 {
		fmt.Println("WARNING: the results come from different host fingerprints; they are not comparable:")
		for h := range hosts {
			fmt.Println("  ", h)
		}
	}
	type key struct {
		workload, metric, unit string
		trace                  bool
	}
	values := map[key][2][]float64{}
	for i, recs := range sides {
		for _, r := range recs {
			for name, m := range r.Result.Metrics {
				k := key{r.Workload, name, m.Unit, r.Trace}
				v := values[k]
				v[i] = append(v[i], m.Value)
				values[k] = v
			}
		}
	}
	keys := make([]key, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		if a.trace != b.trace {
			return !a.trace
		}
		return a.metric < b.metric
	})
	fmt.Printf("%-16s %-36s %14s %14s %9s  %s\n", "workload", "metric", "old median", "new median", "change", "runs")
	for _, k := range keys {
		v := values[k]
		if len(v[0]) == 0 || len(v[1]) == 0 {
			continue
		}
		old, cur := median(v[0]), median(v[1])
		change := "-"
		if old != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(cur-old)/old)
		}
		fmt.Printf("%-16s %-36s %14.6g %14.6g %9s  %d/%d %s\n", k.workload, k.metric, old, cur, change,
			len(v[0]), len(v[1]), k.unit)
	}
	return 0
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}
