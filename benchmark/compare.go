package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkJSON is the part of BENCHMARK.json -compare reads: the bounds.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadBounds reads the end-to-end metrics and their bounds from
// BENCHMARK.json in the working directory, or falls back to the catalogue
// the binary was built with.
func loadBounds() []metricDef {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return endToEnd
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil || len(b.EndToEnd) == 0 {
		return endToEnd
	}
	out := make([]metricDef, 0, len(b.EndToEnd))
	for _, m := range b.EndToEnd {
		out = append(out, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound})
	}
	return out
}

func loadReport(path string) (*fullReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r fullReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// sideValues collects a metric's values over a side's untraced runs of a
// workload.
func sideValues(reps []*fullReport, workload, metric string) []float64 {
	var out []float64
	for _, r := range reps {
		for _, run := range r.Runs {
			if run.Workload == workload && !run.Trace {
				if m, ok := run.Metrics[metric]; ok {
					out = append(out, m.Value)
				}
			}
		}
	}
	return out
}

// compareReports prints, per workload and end-to-end metric, both sides'
// medians, the relative difference and the bound. The first file is side A
// (the base), every further file side B. It returns 1 when B is worse than A
// by more than a bound, 0 otherwise; a metric whose own spread on either
// side exceeds its bound is "unresolved", not a verdict.
func compareReports(w io.Writer, paths []string) int {
	if len(paths) < 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -compare needs two report files: a.json b.json")
		return 2
	}
	var a, b []*fullReport
	for i, p := range paths {
		r, err := loadReport(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		if i == 0 {
			a = append(a, r)
		} else {
			b = append(b, r)
		}
	}
	code := 0
	fmt.Fprintf(w, "%-16s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "b vs a", "bound", "verdict")
	bounds := loadBounds()
	for _, wl := range workloads {
		for _, m := range bounds {
			va, vb := sideValues(a, wl.Name, m.Name), sideValues(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict, worse := judge(m, va, vb)
			if worse {
				code = 1
			}
			ma, mb := median(va), median(vb)
			rel := 0.0
			if ma != 0 {
				rel = (mb - ma) / ma
			}
			fmt.Fprintf(w, "%-16s %-18s %14.4f %14.4f %+8.2f%% %6.1f%%  %s\n", wl.Name, m.Name, ma, mb, rel*100, m.Bound*100, verdict)
		}
	}
	return code
}

// rangeSpread is a side's own run-to-run spread as a share of its median:
// the quartile distance from four values up, max - min below that.
func rangeSpread(v []float64) float64 {
	if len(v) >= 4 {
		return quartileSpread(v)
	}
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo, hi = min(lo, x), max(hi, x)
	}
	return (hi - lo) / m
}

func judge(m metricDef, va, vb []float64) (verdict string, worse bool) {
	if max(rangeSpread(va), rangeSpread(vb)) > m.Bound {
		return "unresolved (spread exceeds the bound)", false
	}
	ma, mb := median(va), median(vb)
	if ma == 0 {
		return "ok", false
	}
	rel := (mb - ma) / ma
	if m.Better == "higher" {
		rel = -rel
	}
	if rel > m.Bound {
		return "WORSE", true
	}
	return "ok", false
}
