package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// genLagLimit is the generator lag p99, in ms, above which a workload counts
// as over-sized for the box when more than one run in ten passes it. The
// series reports the count; it is a property of the box as much as of the
// workload (README.md), so it does not decide the exit code.
const genLagLimit = 5.0

// runSeries does what the driver does before it accepts the benchmark: n
// seeds of each workload, then the same again, each run a process of its own,
// and for every end-to-end metric the two spreads (interquartile range over
// median, statistics.quantiles(n=4) arithmetic) and the two medians against
// the metric's bound. It reports whether everything held: every run correct
// with no failed operation, every spread but setup_s's within its bound, and
// no second median worse than the first by more than the bound.
func runSeries(n, seconds int, only string) bool {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "clanbench: %v\n", err)
		return false
	}
	type key struct{ workload, metric string }
	values := [2]map[key][]float64{{}, {}}
	lagOver := map[string]int{}
	ok := true
	for s := 0; s < 2; s++ {
		for _, w := range workloads {
			if only != "" && w.name != only {
				continue
			}
			for i := 0; i < n; i++ {
				seed := 1 + s*n + i
				res, lag, err := runChild(self, w.name, seed, seconds)
				if err != nil {
					fmt.Printf("series %d %s seed %d: %v\n", s+1, w.name, seed, err)
					ok = false
					continue
				}
				if !res.Correct || res.Failed > 0 {
					fmt.Printf("series %d %s seed %d: correct=%v failed=%d\n", s+1, w.name, seed, res.Correct, res.Failed)
					ok = false
				}
				if lag > genLagLimit {
					lagOver[w.name]++
				}
				line := fmt.Sprintf("series %d %-17s seed %-3d lag %.2f", s+1, w.name, seed, lag)
				for _, d := range endToEnd {
					v := res.Metrics[d.name].Value
					values[s][key{w.name, d.name}] = append(values[s][key{w.name, d.name}], v)
					line += fmt.Sprintf("  %s %.4g", d.name, v)
				}
				fmt.Println(line)
			}
		}
	}
	fmt.Printf("\n%-17s %-18s %6s %8s %8s %10s %10s %7s  %s\n",
		"workload", "metric", "bound", "spread1", "spread2", "median1", "median2", "shift", "verdict")
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := values[0][key{w.name, d.name}], values[1][key{w.name, d.name}]
			if len(a) < 2 || len(b) < 2 {
				continue
			}
			s1, s2 := spread(a), spread(b)
			m1, m2 := median(a), median(b)
			shift := (m2 - m1) / m1 // every end-to-end metric is lower-is-better
			var verdict []string
			if d.name != "setup_s" && (s1 > d.bound || s2 > d.bound) {
				verdict = append(verdict, "SPREAD OVER BOUND")
			} else if d.name != "setup_s" && min(s1, s2) > d.bound/3 {
				verdict = append(verdict, "spread over a third of bound in both series")
			}
			if shift > d.bound {
				verdict = append(verdict, "SECOND MEDIAN WORSE THAN BOUND")
			}
			if len(verdict) == 0 {
				verdict = []string{"ok"}
			} else {
				ok = false
			}
			fmt.Printf("%-17s %-18s %6.2f %8.4f %8.4f %10.4g %10.4g %+7.3f  %s\n",
				w.name, d.name, d.bound, s1, s2, m1, m2, shift, strings.Join(verdict, "; "))
		}
		if over := lagOver[w.name]; over > 2*n/10 {
			fmt.Printf("%-17s note: generator lag p99 over %.0f ms in %d of %d runs\n", w.name, genLagLimit, over, 2*n)
		}
	}
	return ok
}

// runChild runs one untraced run in a fresh process, so that allocation and
// heap figures start from nothing, and parses its result line.
func runChild(self, workload string, seed, seconds int) (resultJSON, float64, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.Itoa(seed),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return resultJSON{}, 0, err
	}
	var last string
	var aux struct {
		Lag float64 `json:"gen_lag_p99_ms"`
	}
	sc := bufio.NewScanner(bytes.NewReader(outBytes))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if rest, found := strings.CutPrefix(sc.Text(), "aux "); found {
			if err := json.Unmarshal([]byte(rest), &aux); err != nil {
				return resultJSON{}, 0, err
			}
		}
		last = sc.Text()
	}
	var res resultJSON
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return resultJSON{}, 0, fmt.Errorf("last line is not a result: %w", err)
	}
	return res, aux.Lag, nil
}
