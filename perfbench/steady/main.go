// Command steady runs the benchmark several times per workload, each run
// with its own seed, by default in two batches whose runs alternate (seed 1
// of batch a, seed 1 of batch b, seed 2 of batch a, ...), so slow drift of
// the host charges both batches alike. For each batch it reports every
// end-to-end metric's median, quartiles and quartile spread and the tail
// percentile the workload can fix; for a pair it reports how far the
// second batch's median moved from the first's. Run it from perfbench/:
//
//	go run ./steady -root .. -runs 10 -seconds 45 -out steadiness.json
//
// It builds and runs the benchmark through perfbench/run.sh in the root,
// one run at a time.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"maxsumdiv/perfbench/stats"
)

type samplesLine struct {
	Samples struct {
		Tail     float64             `json:"tail"`
		Query    stats.LatencyReport `json:"query"`
		Mutation stats.LatencyReport `json:"mutation"`
	} `json:"samples"`
}

type envLine struct {
	Env struct {
		CPULoop float64 `json:"cpu_loop_per_s"`
		MemGBps float64 `json:"mem_stream_gb_per_s"`
	} `json:"env"`
}

// Summary is one metric over a batch's runs.
type Summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"`
	Values []float64 `json:"values"`
}

// Report is one batch's steadiness record for one workload.
type Report struct {
	Seeds []int   `json:"seeds"`
	Tail  float64 `json:"tail"`
	// TailQualifying is the highest candidate percentile at which both
	// latencies kept enough samples and repeated; absent when none did.
	TailQualifying *float64 `json:"tail_qualifying,omitempty"`
	// TailSpread is each latency's quartile spread over the runs at every
	// candidate tail, and TailBeyond the fewest samples beyond it in any
	// run's sub-window.
	TailSpread   map[string]map[string]float64 `json:"tail_spread"`
	TailBeyond   map[string]map[string]int     `json:"tail_beyond"`
	QuerySamples []int                         `json:"query_samples"`
	MutSamples   []int                         `json:"mutation_samples"`
	CPULoop      []float64                     `json:"cpu_loop_per_s"`
	MemGBps      []float64                     `json:"mem_stream_gb_per_s"`
	Metrics      map[string]Summary            `json:"metrics"`
}

// Record is one workload's batches and, when there are two, each second
// median's change from the first, as a share of the first.
type Record struct {
	Seconds int                `json:"seconds"`
	Batches []*Report          `json:"batches"`
	Drift   map[string]float64 `json:"median_drift,omitempty"`
}

// tailTol is the quartile spread within which a tail percentile must
// repeat to qualify: a third of the 0.25 bound of the latency metrics,
// the steadiness every end-to-end metric is held to, which is stricter
// than a tenth.
const tailTol = 0.25 / 3

// run is what one benchmark run printed.
type run struct {
	seed    int
	res     stats.Result
	samples *samplesLine
	cpuLoop float64
	memGBps float64
}

func main() {
	root := flag.String("root", ".", "repository root")
	runs := flag.Int("runs", 10, "runs per workload and batch")
	batches := flag.Int("batches", 2, "batches per workload, 1 or 2")
	firstSeed := flag.Int("first-seed", 1, "seed of the first run; later runs count up")
	seconds := flag.Int("seconds", 15, "--seconds of each run")
	list := flag.String("workloads", "tri-churn,cluster-mixed", "comma-separated workloads")
	out := flag.String("out", "", "write the record as JSON to this file")
	flag.Parse()

	record := make(map[string]*Record)
	for _, w := range strings.Split(*list, ",") {
		rec, err := measure(*root, w, *firstSeed, *runs, *seconds, *batches)
		if err != nil {
			fmt.Fprintln(os.Stderr, "steady:", err)
			os.Exit(1)
		}
		record[w] = rec
		show(w, rec)
	}
	if *out != "" {
		b, err := json.MarshalIndent(record, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "steady:", err)
			os.Exit(1)
		}
	}
}

func measure(root, workload string, firstSeed, runs, seconds, batches int) (*Record, error) {
	if batches != 1 && batches != 2 {
		return nil, fmt.Errorf("want 1 or 2 batches, got %d", batches)
	}
	byBatch := make([][]run, batches)
	for i := range runs {
		seed := firstSeed + i
		for b := range byBatch {
			r, err := runOnce(root, workload, seed, seconds)
			if err != nil {
				return nil, err
			}
			byBatch[b] = append(byBatch[b], r)
		}
		fmt.Fprintf(os.Stderr, "%s seed %d done\n", workload, seed)
	}
	rec := &Record{Seconds: seconds, Drift: make(map[string]float64)}
	for _, runs := range byBatch {
		rec.Batches = append(rec.Batches, summarize(runs))
	}
	if batches == 2 {
		for name, s := range rec.Batches[0].Metrics {
			if s.Median != 0 {
				rec.Drift[name] = (rec.Batches[1].Metrics[name].Median - s.Median) / math.Abs(s.Median)
			}
		}
	}
	return rec, nil
}

func runOnce(root, workload string, seed, seconds int) (run, error) {
	cmd := exec.Command("bash", filepath.Join("perfbench", "run.sh"),
		"--workload", workload, "--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return run{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := nonEmptyLines(stdout)
	r := run{seed: seed}
	if err := json.Unmarshal(lines[len(lines)-1], &r.res); err != nil {
		return run{}, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if !r.res.Correct {
		return run{}, fmt.Errorf("%s seed %d: run reported correct=false", workload, seed)
	}
	for _, l := range lines[:len(lines)-1] {
		var s samplesLine
		if json.Unmarshal(l, &s) == nil && s.Samples.Query.N > 0 {
			r.samples = &s
		}
		var e envLine
		if json.Unmarshal(l, &e) == nil && e.Env.CPULoop > 0 {
			r.cpuLoop, r.memGBps = e.Env.CPULoop, e.Env.MemGBps
		}
	}
	if r.samples == nil {
		return run{}, fmt.Errorf("%s seed %d: no sample report", workload, seed)
	}
	return r, nil
}

func summarize(runs []run) *Report {
	rep := &Report{Metrics: make(map[string]Summary)}
	values := make(map[string][]float64)
	units := make(map[string]string)
	tails := map[string][]stats.TailRun{}
	for _, r := range runs {
		rep.Seeds = append(rep.Seeds, r.seed)
		rep.Tail = r.samples.Samples.Tail
		rep.QuerySamples = append(rep.QuerySamples, r.samples.Samples.Query.N)
		rep.MutSamples = append(rep.MutSamples, r.samples.Samples.Mutation.N)
		rep.CPULoop = append(rep.CPULoop, r.cpuLoop)
		rep.MemGBps = append(rep.MemGBps, r.memGBps)
		tails["query"] = append(tails["query"], toTailRun(r.samples.Samples.Query))
		tails["mutation"] = append(tails["mutation"], toTailRun(r.samples.Samples.Mutation))
		for name, m := range r.res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	for name, xs := range values {
		q1, q2, q3 := stats.Quartiles(xs)
		rep.Metrics[name] = Summary{Unit: units[name], Median: q2, Q1: q1, Q3: q3, Spread: stats.Spread(xs), Values: xs}
	}
	if p, ok := stats.ChooseTail(10, tailTol, tails["query"], tails["mutation"]); ok {
		rep.TailQualifying = &p
	}
	rep.TailSpread = map[string]map[string]float64{}
	rep.TailBeyond = map[string]map[string]int{}
	for kind, runs := range tails {
		rep.TailSpread[kind] = map[string]float64{}
		rep.TailBeyond[kind] = map[string]int{}
		for _, p := range stats.TailCandidates {
			key := fmt.Sprintf("p%g", p)
			var vals []float64
			fewest := math.MaxInt
			for _, r := range runs {
				vals = append(vals, r.Value[p])
				fewest = min(fewest, r.Beyond[p])
			}
			rep.TailSpread[kind][key] = stats.Spread(vals)
			rep.TailBeyond[kind][key] = fewest
		}
	}
	return rep
}

func toTailRun(r stats.LatencyReport) stats.TailRun {
	t := stats.TailRun{Value: map[float64]float64{}, Beyond: map[float64]int{}}
	for _, p := range stats.TailCandidates {
		key := fmt.Sprintf("p%g", p)
		t.Value[p], t.Beyond[p] = r.Value[key], r.Beyond[key]
	}
	return t
}

func nonEmptyLines(b []byte) [][]byte {
	var out [][]byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		if l := bytes.TrimSpace(sc.Bytes()); len(l) > 0 {
			out = append(out, slices.Clone(l))
		}
	}
	return out
}

func show(workload string, rec *Record) {
	for i, rep := range rec.Batches {
		q := "none"
		if rep.TailQualifying != nil {
			q = fmt.Sprintf("p%g", *rep.TailQualifying)
		}
		fmt.Printf("%s batch %d (tail p%g fixed; qualifying %s; spreads %v; fewest beyond %v)\n",
			workload, i+1, rep.Tail, q, rep.TailSpread, rep.TailBeyond)
		names := make([]string, 0, len(rep.Metrics))
		for name := range rep.Metrics {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			s := rep.Metrics[name]
			fmt.Printf("  %-22s median %12.6g  q1 %12.6g  q3 %12.6g  spread %6.3f  drift %+6.3f %s\n",
				name, s.Median, s.Q1, s.Q3, s.Spread, rec.Drift[name], s.Unit)
		}
	}
}
